//! JSON encoding/decoding of CAP sets.
//!
//! MISCELA "returns a set of sets of sensors as CAPs [...] and its format is
//! JSON" (Section 3.4). The persistent cache and the API server both ship
//! CAP sets as JSON, using the encoding defined here: an array of CAP
//! objects, each with its member sensors (index + direction), attribute ids,
//! support and co-evolving timestamps.
//!
//! The serving path encodes each mined CAP set once, with
//! [`capset_to_text`], which writes the compact text straight from the
//! CAPs. The result cache keeps that text and responses embed it as
//! [`Json::Raw`]. [`capset_to_json`] builds the same document as a tree; it
//! is the reference the text writer is tested against. Decoding always
//! reads a tree ([`capset_from_json`]).

use miscela_core::{Cap, CapMember, CapSet, Direction};
use miscela_model::{AttributeId, SensorIndex};
use miscela_store::json::write_number;
use miscela_store::Json;
use std::collections::BTreeSet;

/// Encodes one CAP as a JSON object.
pub fn cap_to_json(cap: &Cap) -> Json {
    let members: Vec<Json> = cap
        .members
        .iter()
        .map(|m| {
            Json::from_pairs([
                ("sensor", Json::from(m.sensor.0 as i64)),
                ("direction", Json::from(m.direction.symbol())),
            ])
        })
        .collect();
    Json::from_pairs([
        ("members", Json::Array(members)),
        (
            "attributes",
            Json::Array(
                cap.attributes
                    .iter()
                    .map(|a| Json::from(a.0 as i64))
                    .collect(),
            ),
        ),
        ("support", Json::from(cap.support)),
        (
            "timestamps",
            Json::Array(
                cap.timestamps
                    .iter()
                    .map(|&t| Json::from(t as i64))
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a whole CAP set as a JSON array.
pub fn capset_to_json(caps: &CapSet) -> Json {
    Json::Array(caps.caps().iter().map(cap_to_json).collect())
}

/// Writes a whole CAP set as compact JSON text: the bytes of
/// `capset_to_json(caps).to_string_compact()`, without building the tree.
pub fn capset_to_text(caps: &CapSet) -> String {
    let mut out = String::new();
    out.push('[');
    for (i, cap) in caps.caps().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_cap(&mut out, cap);
    }
    out.push(']');
    out
}

/// Writes one CAP object, its keys in the sorted order a tree writes them.
fn write_cap(out: &mut String, cap: &Cap) {
    out.push_str("{\"attributes\":");
    write_numbers(out, cap.attributes.iter().map(|a| f64::from(a.0)));
    out.push_str(",\"members\":[");
    for (i, m) in cap.members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Direction symbols (`+`, `-`) need no escaping.
        out.push_str("{\"direction\":\"");
        out.push_str(m.direction.symbol());
        out.push_str("\",\"sensor\":");
        write_number(out, f64::from(m.sensor.0));
        out.push('}');
    }
    out.push_str("],\"support\":");
    write_number(out, cap.support as f64);
    out.push_str(",\"timestamps\":");
    write_numbers(out, cap.timestamps.iter().map(|&t| f64::from(t)));
    out.push('}');
}

fn write_numbers(out: &mut String, numbers: impl Iterator<Item = f64>) {
    out.push('[');
    for (i, n) in numbers.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, n);
    }
    out.push(']');
}

/// Decodes one CAP from its JSON object. Returns `None` on malformed input,
/// a sensor, attribute or timestamp outside its type's range included.
pub fn cap_from_json(json: &Json) -> Option<Cap> {
    let members: Vec<CapMember> = json
        .get("members")?
        .as_array()?
        .iter()
        .map(|m| {
            let sensor = SensorIndex(u32::try_from(m.get("sensor")?.as_i64()?).ok()?);
            let direction = match m.get("direction")?.as_str()? {
                "+" => Direction::Up,
                "-" => Direction::Down,
                _ => return None,
            };
            Some(CapMember { sensor, direction })
        })
        .collect::<Option<Vec<_>>>()?;
    let attributes: BTreeSet<AttributeId> = json
        .get("attributes")?
        .as_array()?
        .iter()
        .map(|a| Some(AttributeId(u16::try_from(a.as_i64()?).ok()?)))
        .collect::<Option<BTreeSet<_>>>()?;
    let timestamps: Vec<u32> = json
        .get("timestamps")?
        .as_array()?
        .iter()
        .map(|t| u32::try_from(t.as_i64()?).ok())
        .collect::<Option<Vec<_>>>()?;
    Some(Cap::new(members, attributes, timestamps))
}

/// Decodes a CAP set from its JSON array. Returns `None` on malformed input.
pub fn capset_from_json(json: &Json) -> Option<CapSet> {
    let caps = json
        .as_array()?
        .iter()
        .map(cap_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some(CapSet::from_caps(caps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_capset() -> CapSet {
        let cap1 = Cap::new(
            vec![
                CapMember {
                    sensor: SensorIndex(3),
                    direction: Direction::Up,
                },
                CapMember {
                    sensor: SensorIndex(7),
                    direction: Direction::Down,
                },
            ],
            [AttributeId(0), AttributeId(2)].into_iter().collect(),
            vec![4, 9, 20],
        );
        let cap2 = Cap::new(
            vec![
                CapMember {
                    sensor: SensorIndex(1),
                    direction: Direction::Up,
                },
                CapMember {
                    sensor: SensorIndex(2),
                    direction: Direction::Up,
                },
            ],
            [AttributeId(0), AttributeId(1)].into_iter().collect(),
            vec![1, 2, 3, 4, 5],
        );
        CapSet::from_caps(vec![cap1, cap2])
    }

    #[test]
    fn round_trip() {
        let caps = sample_capset();
        let json = capset_to_json(&caps);
        let text = json.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        let back = capset_from_json(&parsed).unwrap();
        assert_eq!(back, caps);
    }

    #[test]
    fn json_structure_is_as_documented() {
        let caps = sample_capset();
        let json = capset_to_json(&caps);
        let arr = json.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        let first = &arr[0];
        assert!(first.get("members").is_some());
        assert!(first.get("support").is_some());
        assert_eq!(
            first.get("support").unwrap().as_i64().unwrap() as usize,
            caps.caps()[0].support
        );
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(capset_from_json(&Json::from("not an array")).is_none());
        let bad_member = Json::parse(r#"[{"members":[{"sensor":1,"direction":"x"}],"attributes":[0],"support":1,"timestamps":[1]}]"#).unwrap();
        assert!(capset_from_json(&bad_member).is_none());
        let missing_field =
            Json::parse(r#"[{"attributes":[0],"support":1,"timestamps":[1]}]"#).unwrap();
        assert!(capset_from_json(&missing_field).is_none());
    }

    #[test]
    fn out_of_range_numbers_are_rejected_not_wrapped() {
        let cap = |sensor: i64, attribute: i64, timestamp: i64| {
            Json::parse(&format!(
                r#"[{{"members":[{{"sensor":{sensor},"direction":"+"}}],"attributes":[{attribute}],"support":1,"timestamps":[{timestamp}]}}]"#
            ))
            .unwrap()
        };
        assert!(capset_from_json(&cap(4_294_967_295, 65_535, 4_294_967_295)).is_some());
        for (sensor, attribute, timestamp) in [
            (-1, 0, 0),
            (4_294_967_297, 0, 0),
            (0, 65_536, 0),
            (0, 0, -1),
        ] {
            assert!(
                capset_from_json(&cap(sensor, attribute, timestamp)).is_none(),
                "sensor {sensor}, attribute {attribute}, timestamp {timestamp}"
            );
        }
    }
}
