//! Step (3) of MISCELA: discovering spatially connected sets of sensors.
//!
//! Two sensors are *close* when their great-circle distance is below the
//! threshold η; CAPs are only mined inside connected components of the
//! resulting proximity graph ("we divide a given sensor set into spatially
//! close sensors to restrict the search space", Section 2.2).
//!
//! The graph is built with a latitude/longitude grid hash so that the
//! country-scale China datasets (thousands of sensors) do not pay the
//! quadratic all-pairs cost: only sensors in the 3×3 neighbouring cells are
//! candidates for an edge.

use miscela_model::{Dataset, GeoPoint, SensorIndex};
use std::collections::HashMap;

/// Kilometres per degree of latitude (mean).
const KM_PER_DEG_LAT: f64 = 110.574;
/// Kilometres per degree of longitude at the equator.
const KM_PER_DEG_LON_EQUATOR: f64 = 111.320;

/// The η-proximity graph over a dataset's sensors.
#[derive(Debug, Clone)]
pub struct ProximityGraph {
    eta_km: f64,
    /// Adjacency lists, indexed by dense sensor index.
    adjacency: Vec<Vec<SensorIndex>>,
    /// Component id per sensor.
    component_of: Vec<usize>,
    /// Sensors per component, each sorted ascending.
    components: Vec<Vec<SensorIndex>>,
}

impl ProximityGraph {
    /// Builds the proximity graph for all sensors of a dataset.
    pub fn build(dataset: &Dataset, eta_km: f64) -> Self {
        let points: Vec<GeoPoint> = dataset.iter().map(|s| s.sensor.location).collect();
        Self::from_points(&points, eta_km)
    }

    /// Builds the proximity graph from raw points (dense index = position).
    pub fn from_points(points: &[GeoPoint], eta_km: f64) -> Self {
        let n = points.len();
        let mut adjacency: Vec<Vec<SensorIndex>> = vec![Vec::new(); n];

        if n > 0 && eta_km > 0.0 {
            // Grid-hash points into cells of roughly η × η kilometres.
            let mean_lat = points.iter().map(|p| p.lat).sum::<f64>() / n as f64;
            let cell_lat = eta_km / KM_PER_DEG_LAT;
            let cos_lat = mean_lat.to_radians().cos().abs().max(0.05);
            let cell_lon = eta_km / (KM_PER_DEG_LON_EQUATOR * cos_lat);
            let key = |p: &GeoPoint| -> (i64, i64) {
                (
                    (p.lat / cell_lat).floor() as i64,
                    (p.lon / cell_lon).floor() as i64,
                )
            };
            let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
            for (i, p) in points.iter().enumerate() {
                cells.entry(key(p)).or_default().push(i);
            }
            for (i, p) in points.iter().enumerate() {
                let (cx, cy) = key(p);
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(bucket) = cells.get(&(cx + dx, cy + dy)) else {
                            continue;
                        };
                        for &j in bucket {
                            if j <= i {
                                continue;
                            }
                            if p.distance_km(&points[j]) <= eta_km {
                                adjacency[i].push(SensorIndex(j as u32));
                                adjacency[j].push(SensorIndex(i as u32));
                            }
                        }
                    }
                }
            }
            for adj in &mut adjacency {
                adj.sort();
                adj.dedup();
            }
        }

        // Connected components via iterative DFS.
        let mut component_of = vec![usize::MAX; n];
        let mut components: Vec<Vec<SensorIndex>> = Vec::new();
        for start in 0..n {
            if component_of[start] != usize::MAX {
                continue;
            }
            let cid = components.len();
            let mut stack = vec![start];
            let mut members = Vec::new();
            component_of[start] = cid;
            while let Some(v) = stack.pop() {
                members.push(SensorIndex(v as u32));
                for &u in &adjacency[v] {
                    let ui = u.index();
                    if component_of[ui] == usize::MAX {
                        component_of[ui] = cid;
                        stack.push(ui);
                    }
                }
            }
            members.sort();
            components.push(members);
        }

        ProximityGraph {
            eta_km,
            adjacency,
            component_of,
            components,
        }
    }

    /// The distance threshold the graph was built with.
    pub fn eta_km(&self) -> f64 {
        self.eta_km
    }

    /// Number of sensors (vertices).
    pub fn sensor_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of proximity edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Neighbours of a sensor (sorted ascending).
    pub fn neighbors(&self, s: SensorIndex) -> &[SensorIndex] {
        &self.adjacency[s.index()]
    }

    /// Degree of a sensor: the number of its η-neighbours.
    pub fn degree(&self, s: SensorIndex) -> usize {
        self.adjacency[s.index()].len()
    }

    /// A cheap estimate of the CAP-search cost of a sensor set: the sum of
    /// `degree + 1` over the members. The search tree fan-out at each vertex
    /// is bounded by its degree, so denser and larger sets rank higher. The
    /// work-stealing scheduler sorts work units by this estimate,
    /// largest first, so a giant component no longer gates wall-clock time.
    pub fn estimated_search_cost(&self, sensors: &[SensorIndex]) -> usize {
        sensors.iter().map(|&s| self.degree(s) + 1).sum()
    }

    /// Whether two sensors are within η of each other.
    pub fn are_close(&self, a: SensorIndex, b: SensorIndex) -> bool {
        self.adjacency[a.index()].binary_search(&b).is_ok()
    }

    /// Component id of a sensor.
    pub fn component_of(&self, s: SensorIndex) -> usize {
        self.component_of[s.index()]
    }

    /// All connected components (each sorted ascending). Singleton
    /// components are included; the CAP search skips them because a CAP
    /// needs at least two sensors.
    pub fn components(&self) -> &[Vec<SensorIndex>] {
        &self.components
    }

    /// Components with at least `min_size` sensors.
    pub fn components_at_least(&self, min_size: usize) -> impl Iterator<Item = &Vec<SensorIndex>> {
        self.components.iter().filter(move |c| c.len() >= min_size)
    }

    /// Whether the given sensor set induces a connected subgraph.
    pub fn is_connected_subset(&self, sensors: &[SensorIndex]) -> bool {
        match sensors.len() {
            0 => false,
            1 => true,
            _ => {
                let set: std::collections::HashSet<SensorIndex> = sensors.iter().copied().collect();
                let mut visited = std::collections::HashSet::new();
                let mut stack = vec![sensors[0]];
                visited.insert(sensors[0]);
                while let Some(v) = stack.pop() {
                    for &u in self.neighbors(v) {
                        if set.contains(&u) && visited.insert(u) {
                            stack.push(u);
                        }
                    }
                }
                visited.len() == sensors.len()
            }
        }
    }

    /// Degree histogram summary: (min, mean, max) vertex degree.
    pub fn degree_summary(&self) -> (usize, f64, usize) {
        if self.adjacency.is_empty() {
            return (0, 0.0, 0);
        }
        let degrees: Vec<usize> = self.adjacency.iter().map(|a| a.len()).collect();
        let min = degrees.iter().copied().min().unwrap_or(0);
        let max = degrees.iter().copied().max().unwrap_or(0);
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        (min, mean, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new_unchecked(lat, lon)
    }

    fn s(i: u32) -> SensorIndex {
        SensorIndex(i)
    }

    #[test]
    fn close_pairs_get_edges() {
        // Three sensors: 0 and 1 are ~170 m apart, 2 is ~20 km away.
        let points = vec![
            p(43.46192, -3.80176),
            p(43.46212, -3.79979),
            p(43.30000, -3.90000),
        ];
        let g = ProximityGraph::from_points(&points, 1.0);
        assert_eq!(g.sensor_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert!(g.are_close(s(0), s(1)));
        assert!(g.are_close(s(1), s(0)));
        assert!(!g.are_close(s(0), s(2)));
        assert_eq!(g.neighbors(s(0)), &[s(1)]);
        assert!(g.neighbors(s(2)).is_empty());
    }

    #[test]
    fn larger_eta_gives_more_edges() {
        let points: Vec<GeoPoint> = (0..20)
            .map(|i| p(43.46 + 0.002 * i as f64, -3.80))
            .collect();
        let mut prev = 0;
        for eta in [0.1, 0.5, 1.0, 5.0, 50.0] {
            let g = ProximityGraph::from_points(&points, eta);
            let e = g.edge_count();
            assert!(e >= prev, "eta={eta} produced {e} < {prev}");
            prev = e;
        }
        // With 50 km every pair is connected.
        assert_eq!(prev, 20 * 19 / 2);
    }

    #[test]
    fn grid_hash_matches_brute_force() {
        // Pseudo-random points over a ~30 km box; grid-hash adjacency must
        // equal the brute-force all-pairs adjacency.
        let mut state = 12345u64;
        let mut rand01 = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) / 2.0
        };
        let points: Vec<GeoPoint> = (0..120)
            .map(|_| p(31.0 + rand01() * 0.3, 121.0 + rand01() * 0.3))
            .collect();
        let eta = 3.0;
        let g = ProximityGraph::from_points(&points, eta);
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let expected = points[i].distance_km(&points[j]) <= eta;
                assert_eq!(
                    g.are_close(s(i as u32), s(j as u32)),
                    expected,
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn components_partition_sensors() {
        // Two clusters far apart plus one isolated sensor.
        let mut points = Vec::new();
        for i in 0..5 {
            points.push(p(43.46 + 0.001 * i as f64, -3.80));
        }
        for i in 0..4 {
            points.push(p(43.60 + 0.001 * i as f64, -3.50));
        }
        points.push(p(44.5, -2.0));
        let g = ProximityGraph::from_points(&points, 1.0);
        assert_eq!(g.components().len(), 3);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = g.components().iter().map(|c| c.len()).collect();
            v.sort();
            v
        };
        assert_eq!(sizes, vec![1, 4, 5]);
        // Every sensor belongs to exactly one component and components are
        // consistent with component_of.
        let total: usize = g.components().iter().map(|c| c.len()).sum();
        assert_eq!(total, 10);
        for (cid, comp) in g.components().iter().enumerate() {
            for &m in comp {
                assert_eq!(g.component_of(m), cid);
            }
        }
        assert_eq!(g.components_at_least(2).count(), 2);
    }

    #[test]
    fn connected_subset_check() {
        // A chain 0 - 1 - 2 (0 and 2 are not direct neighbours).
        let points = vec![p(43.4600, -3.80), p(43.4680, -3.80), p(43.4760, -3.80)];
        let g = ProximityGraph::from_points(&points, 1.0);
        assert!(g.are_close(s(0), s(1)));
        assert!(g.are_close(s(1), s(2)));
        assert!(!g.are_close(s(0), s(2)));
        assert!(g.is_connected_subset(&[s(0), s(1), s(2)]));
        assert!(g.is_connected_subset(&[s(0), s(1)]));
        assert!(!g.is_connected_subset(&[s(0), s(2)]));
        assert!(g.is_connected_subset(&[s(1)]));
        assert!(!g.is_connected_subset(&[]));
    }

    #[test]
    fn empty_graph() {
        let g = ProximityGraph::from_points(&[], 1.0);
        assert_eq!(g.sensor_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.components().is_empty());
        assert_eq!(g.degree_summary(), (0, 0.0, 0));
    }

    #[test]
    fn degree_summary_reasonable() {
        let points: Vec<GeoPoint> = (0..10)
            .map(|i| p(43.46 + 0.0005 * i as f64, -3.80))
            .collect();
        let g = ProximityGraph::from_points(&points, 1.0);
        let (min, mean, max) = g.degree_summary();
        assert!(min >= 1);
        assert!(max <= 9);
        assert!(mean > 0.0 && mean <= 9.0);
    }
}
