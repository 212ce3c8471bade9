//! # Miscela-RS — `miscela-v`
//!
//! A from-scratch Rust reproduction of **Miscela-V** (EDBT 2021): a system
//! for analysing smart-city sensor data by mining and visualizing
//! *correlated attribute patterns* (CAPs) — sets of spatially close sensors,
//! measuring different attributes, whose measurements co-evolve.
//!
//! This crate is the integration facade over the workspace:
//!
//! * [`miscela_model`] — sensors, attributes, geo, time series, datasets;
//! * [`miscela_csv`] — the three-file upload format with chunked `data.csv`;
//! * [`miscela_store`] — the embedded JSON document store (MongoDB
//!   substitute);
//! * [`miscela_core`] — the MISCELA mining engine (and the naive baseline
//!   plus the time-delayed extension);
//! * [`miscela_datagen`] — synthetic stand-ins for the Santander, China6,
//!   China13 and COVID-19 datasets;
//! * [`miscela_cache`] — the parameter-keyed result cache;
//! * [`miscela_server`] — the in-process API layer;
//! * [`miscela_viz`] — the headless map/chart visualization engine.
//!
//! [`MiscelaV`] wires the pieces together the way the demo system does:
//! register or upload a dataset, choose parameters, mine (with caching), and
//! render the Figure-3 style views. [`analysis`] contains the higher-level
//! analyses behind the paper's demonstration scenarios (before/after
//! comparison for COVID-19, horizontal-vs-vertical neighbour comparison for
//! the China wind scenario).
//!
//! ```
//! use miscela_v::MiscelaV;
//! use miscela_v::miscela_core::MiningParams;
//! use miscela_v::miscela_datagen::SantanderGenerator;
//!
//! let system = MiscelaV::new();
//! system.register_dataset(SantanderGenerator::small().with_scale(0.02).generate()).unwrap();
//! let params = MiningParams::new().with_epsilon(0.4).with_eta_km(0.5)
//!     .with_psi(20).with_segmentation(false);
//! let outcome = system.mine("santander", &params).unwrap();
//! println!("{}", outcome.result.caps.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use miscela_cache;
pub use miscela_core;
pub use miscela_csv;
pub use miscela_datagen;
pub use miscela_model;
pub use miscela_server;
pub use miscela_store;
pub use miscela_viz;

pub mod analysis;

use miscela_core::{CancelToken, CapSet, MiningParams};
use miscela_model::{Dataset, SensorIndex};
use miscela_server::{
    ApiError, DatasetSummary, MineOutcome, MiscelaService, Router, DEFAULT_TENANT,
};
use miscela_viz::{Dashboard, SvgDocument};
use std::sync::Arc;

/// The integrated Miscela-V system: service + cache + visualization.
///
/// Every call addresses the service's default tenant ([`DEFAULT_TENANT`]);
/// drive [`MiscelaV::service`] directly to work in another tenant's
/// namespace.
pub struct MiscelaV {
    service: Arc<MiscelaService>,
    router: Router,
}

impl MiscelaV {
    /// Creates a system with a fresh in-memory store.
    pub fn new() -> Self {
        let service = Arc::new(MiscelaService::new());
        let router = Router::new(Arc::clone(&service));
        MiscelaV { service, router }
    }

    /// The underlying service (dataset registry, uploads, mining).
    pub fn service(&self) -> &Arc<MiscelaService> {
        &self.service
    }

    /// The API router, for driving the system through request/response
    /// envelopes exactly as the web front end would.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Registers a dataset built in-process (e.g. by a generator). Fails
    /// like any other registration: on an invalid name (one containing
    /// `/`), over a tenant quota, or when a durable snapshot cannot be
    /// written.
    pub fn register_dataset(&self, dataset: Dataset) -> Result<DatasetSummary, ApiError> {
        self.service
            .register_dataset_keyed_in(DEFAULT_TENANT, dataset, None)
            .map(|(summary, _)| summary)
    }

    /// Uploads a dataset from the paper's three CSV documents, using the
    /// chunked `data.csv` protocol.
    pub fn upload(
        &self,
        name: &str,
        data_csv: &str,
        location_csv: &str,
        attribute_csv: &str,
    ) -> Result<DatasetSummary, ApiError> {
        self.service.upload_documents_in(
            DEFAULT_TENANT,
            name,
            data_csv,
            location_csv,
            attribute_csv,
            miscela_csv::DEFAULT_CHUNK_LINES,
        )
    }

    /// Mines a registered dataset (cache-aware).
    pub fn mine(&self, dataset: &str, params: &MiningParams) -> Result<MineOutcome, ApiError> {
        self.service.mine_cancellable_in(
            DEFAULT_TENANT,
            dataset,
            params,
            None,
            &CancelToken::never(),
        )
    }

    /// Renders the Figure-3 dashboard for the highest-support CAP of a
    /// mining result.
    pub fn dashboard(&self, dataset: &str, caps: &CapSet) -> Result<Option<SvgDocument>, ApiError> {
        let ds = self.service.dataset_in(DEFAULT_TENANT, dataset)?;
        Ok(Dashboard::new(&ds, caps).render_top())
    }

    /// The sensors highlighted when `sensor` is clicked on the map — i.e.
    /// every sensor sharing a CAP with it (Section 3.1).
    pub fn correlated_sensors(
        &self,
        dataset: &str,
        caps: &CapSet,
        sensor: SensorIndex,
    ) -> Result<Vec<SensorIndex>, ApiError> {
        // Validate the dataset exists (and the index is plausible) so the
        // call mirrors the API's behaviour.
        let ds = self.service.dataset_in(DEFAULT_TENANT, dataset)?;
        if sensor.index() >= ds.sensor_count() {
            return Err(ApiError::BadRequest(format!(
                "sensor index {} out of range ({} sensors)",
                sensor.index(),
                ds.sensor_count()
            )));
        }
        Ok(caps.partners_of(sensor))
    }
}

impl Default for MiscelaV {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_datagen::SantanderGenerator;

    fn params() -> MiningParams {
        MiningParams::new()
            .with_epsilon(0.4)
            .with_eta_km(0.5)
            .with_psi(20)
            .with_segmentation(false)
    }

    #[test]
    fn end_to_end_register_mine_visualize() {
        let system = MiscelaV::new();
        let summary = system
            .register_dataset(SantanderGenerator::small().with_scale(0.02).generate())
            .unwrap();
        assert_eq!(summary.name, "santander");

        let outcome = system.mine("santander", &params()).unwrap();
        assert!(!outcome.cache_hit);
        assert!(!outcome.result.caps.is_empty());

        // Clicking a CAP member highlights its partners.
        let member = outcome.result.caps.caps()[0].sensors()[0];
        let partners = system
            .correlated_sensors("santander", &outcome.result.caps, member)
            .unwrap();
        assert!(!partners.is_empty());
        assert!(system
            .correlated_sensors("santander", &outcome.result.caps, SensorIndex(9999))
            .is_err());

        // Dashboard renders.
        let svg = system
            .dashboard("santander", &outcome.result.caps)
            .unwrap()
            .unwrap()
            .render();
        assert!(svg.contains("<svg"));

        // Second request is served from the cache.
        let again = system.mine("santander", &params()).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.result.caps, outcome.result.caps);
    }

    #[test]
    fn slash_names_cannot_reach_another_tenant() {
        use miscela_csv::{DatasetLoader, DatasetWriter};
        use miscela_server::TenantQuota;

        // A default-tenant dataset named `acme/d` would share its store key
        // with tenant `acme`'s dataset `d`; in-process callers get the same
        // typed refusal as the router.
        let system = MiscelaV::new();
        let generated = SantanderGenerator::small().with_scale(0.02).generate();
        let writer = DatasetWriter::new();
        let data = writer.data_csv(&generated);
        let locations = writer.location_csv(&generated);
        let attributes = writer.attribute_csv(&generated);
        let named = DatasetLoader::new("acme/d")
            .load_documents(&data, &locations, &attributes)
            .unwrap();
        let err = system.register_dataset(named).unwrap_err();
        assert!(matches!(err, ApiError::BadRequest(_)), "{err:?}");
        let err = system
            .upload("acme/d", &data, &locations, &attributes)
            .unwrap_err();
        assert!(matches!(err, ApiError::BadRequest(_)), "{err:?}");

        // Tenant `acme` sees nothing: no dataset to read, list or delete.
        let service = system.service();
        let err = service.dataset_in("acme", "d").unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
        assert!(service.list_datasets_in("acme").unwrap().is_empty());
        assert_eq!(service.tenant_cache_stats("acme").unwrap().datasets, 0);
        let err = service
            .delete_dataset_keyed_in("acme", "d", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
        assert!(service.list_datasets_in(DEFAULT_TENANT).unwrap().is_empty());

        // `acme`'s dataset count is still zero — a delete that found
        // nothing must not decrement it — so a one-dataset quota admits
        // exactly one registration.
        let quota = TenantQuota {
            max_datasets: Some(1),
            ..TenantQuota::default()
        };
        service.set_quota("acme", quota).unwrap();
        service
            .register_dataset_keyed_in("acme", generated.clone(), None)
            .unwrap();
        let other = DatasetLoader::new("e")
            .load_documents(&data, &locations, &attributes)
            .unwrap();
        let err = service
            .register_dataset_keyed_in("acme", other, None)
            .unwrap_err();
        assert!(matches!(err, ApiError::QuotaExceeded(_)), "{err:?}");
    }

    #[test]
    fn errors_for_unknown_dataset() {
        let system = MiscelaV::new();
        assert!(system.mine("ghost", &params()).is_err());
        assert!(system.dashboard("ghost", &CapSet::new()).is_err());
    }
}
