//! A transport that puts every request and response through text, as HTTP
//! would: the client's request is written out as a request line plus a
//! compact JSON body and parsed back on the server side; the router's
//! response is written out as a status line plus a JSON body and parsed
//! back on the client side.

use miscela_server::client::{Transport, TransportError};
use miscela_server::message::{ApiRequest, ApiResponse, Method, StatusCode};
use miscela_server::Router;
use miscela_store::Json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every status the API answers with, for decoding a status line.
const STATUSES: [StatusCode; 11] = [
    StatusCode::Ok,
    StatusCode::Created,
    StatusCode::BadRequest,
    StatusCode::NotFound,
    StatusCode::Conflict,
    StatusCode::Forbidden,
    StatusCode::PreconditionFailed,
    StatusCode::TooManyRequests,
    StatusCode::ServiceUnavailable,
    StatusCode::GatewayTimeout,
    StatusCode::InternalError,
];

/// The in-process "network": text in both directions, into a [`Router`].
pub struct WireTransport {
    router: Arc<Router>,
    /// Response text bytes received so far.
    received: u64,
}

impl WireTransport {
    pub fn new(router: Arc<Router>) -> Self {
        WireTransport {
            router,
            received: 0,
        }
    }

    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Transport for WireTransport {
    fn send(&mut self, request: &ApiRequest) -> Result<ApiResponse, TransportError> {
        let parsed = decode_request(&encode_request(request)).map_err(TransportError::Lost)?;
        let text = encode_response(&self.router.handle(&parsed));
        self.received += text.len() as u64;
        decode_response(&text).map_err(TransportError::Lost)
    }
}

fn method_name(method: Method) -> &'static str {
    match method {
        Method::Get => "GET",
        Method::Post => "POST",
        Method::Delete => "DELETE",
    }
}

/// Percent-encodes the few bytes that would break a query string.
fn escape_query(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' | '&' | '=' | '?' | ' ' | '\n' | '#' => {
                let mut buf = [0u8; 4];
                for b in c.encode_utf8(&mut buf).bytes() {
                    out.push_str(&format!("%{b:02X}"));
                }
            }
            c => out.push(c),
        }
    }
    out
}

fn unescape_query(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|e| e.to_string())?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|e| e.to_string())
}

/// `METHOD /path?k=v&k=v` on the first line, the compact JSON body after.
pub fn encode_request(request: &ApiRequest) -> String {
    let body = request.body.to_string_compact();
    let mut line = format!("{} {}", method_name(request.method), request.path);
    for (i, (k, v)) in request.query.iter().enumerate() {
        line.push(if i == 0 { '?' } else { '&' });
        line.push_str(&escape_query(k));
        line.push('=');
        line.push_str(&escape_query(v));
    }
    line.reserve(body.len() + 1);
    line.push('\n');
    line.push_str(&body);
    line
}

pub fn decode_request(text: &str) -> Result<ApiRequest, String> {
    let (line, body) = text.split_once('\n').ok_or("request without a body line")?;
    let (method, target) = line.split_once(' ').ok_or("malformed request line")?;
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "DELETE" => Method::Delete,
        other => return Err(format!("unknown method {other:?}")),
    };
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut pairs = BTreeMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').ok_or("malformed query pair")?;
        pairs.insert(unescape_query(k)?, unescape_query(v)?);
    }
    Ok(ApiRequest {
        method,
        path: path.to_string(),
        query: pairs,
        body: Json::parse(body).map_err(|e| e.to_string())?,
    })
}

/// The numeric status on the first line, the compact JSON body after.
pub fn encode_response(response: &ApiResponse) -> String {
    let body = response.body.to_string_compact();
    let mut text = String::with_capacity(body.len() + 4);
    text.push_str(&response.status.as_u16().to_string());
    text.push('\n');
    text.push_str(&body);
    text
}

pub fn decode_response(text: &str) -> Result<ApiResponse, String> {
    let (line, body) = text
        .split_once('\n')
        .ok_or("response without a body line")?;
    let code: u16 = line.parse().map_err(|_| format!("bad status {line:?}"))?;
    let status = STATUSES
        .into_iter()
        .find(|s| s.as_u16() == code)
        .ok_or_else(|| format!("unknown status {code}"))?;
    Ok(ApiResponse {
        status,
        body: Json::parse(body).map_err(|e| e.to_string())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_text_round_trips() {
        let request = ApiRequest::post(
            "/datasets/d/mine",
            Json::from_pairs([("epsilon", Json::from(1.5)), ("psi", Json::from(120usize))]),
        )
        .with_query("idempotency_key", "a&b=c 100%");
        let back = decode_request(&encode_request(&request)).unwrap();
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.path, request.path);
        assert_eq!(back.query, request.query);
        assert_eq!(
            back.body.to_string_compact(),
            request.body.to_string_compact()
        );
    }

    #[test]
    fn response_text_round_trips() {
        let response = ApiResponse::ok(Json::from_pairs([("caps", Json::Array(vec![]))]));
        let back = decode_response(&encode_response(&response)).unwrap();
        assert_eq!(back.status, StatusCode::Ok);
        assert_eq!(
            back.body.to_string_compact(),
            response.body.to_string_compact()
        );
    }
}
