//! Clusters of simulated devices.

use dcf_device::{Device, DeviceId, DeviceProfile};
use std::collections::HashMap;
use std::sync::Arc;

/// A set of simulated devices spread over machines.
///
/// Each device gets a canonical alias of the form `/machine:M/gpu:K` or
/// `/machine:M/cpu:K` (K counts devices of that class *within* the
/// machine), which is the spelling used in `GraphBuilder::with_device`
/// scopes.
pub struct Cluster {
    devices: Vec<Arc<Device>>,
    aliases: HashMap<String, DeviceId>,
    per_machine_class: HashMap<(usize, &'static str), usize>,
    recipe: Vec<(usize, DeviceProfile)>,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Cluster {
        Cluster {
            devices: Vec::new(),
            aliases: HashMap::new(),
            per_machine_class: HashMap::new(),
            recipe: Vec::new(),
        }
    }

    /// Rebuilds this cluster's topology — same machines, same device
    /// profiles, same aliases — with **fresh** devices (allocators, stream
    /// threads). A forked cluster is what a session replica runs on:
    /// structurally identical (same fingerprint, so replicas share one
    /// compiled graph) but sharing no device state with its sibling
    /// replicas.
    pub fn fork(&self) -> Cluster {
        let mut c = Cluster::new();
        for (machine, profile) in &self.recipe {
            c.add_device(*machine, profile.clone());
        }
        c
    }

    /// Adds a device on `machine` with the given profile; returns its id.
    pub fn add_device(&mut self, machine: usize, profile: DeviceProfile) -> DeviceId {
        self.recipe.push((machine, profile.clone()));
        let id = DeviceId(self.devices.len());
        let class = if profile.is_gpu { "gpu" } else { "cpu" };
        let ordinal = self.per_machine_class.entry((machine, class)).or_insert(0);
        let alias = format!("/machine:{machine}/{class}:{ordinal}");
        *ordinal += 1;
        let device = Device::new(id, machine, profile);
        self.aliases.insert(alias, id);
        self.aliases.insert(device.name().to_owned(), id);
        self.devices.push(device);
        id
    }

    /// Convenience: one machine with a CPU.
    pub fn single_cpu() -> Cluster {
        let mut c = Cluster::new();
        c.add_device(0, DeviceProfile::cpu());
        c
    }

    /// Convenience: one machine with a CPU and `n` GPUs of `profile`.
    pub fn single_machine_gpus(n: usize, profile: DeviceProfile) -> Cluster {
        let mut c = Cluster::new();
        c.add_device(0, DeviceProfile::cpu());
        for _ in 0..n {
            c.add_device(0, profile.clone());
        }
        c
    }

    /// Convenience: `n` machines, each with one GPU of `profile`.
    pub fn gpu_machines(n: usize, profile: DeviceProfile) -> Cluster {
        let mut c = Cluster::new();
        for m in 0..n {
            c.add_device(m, profile.clone());
        }
        c
    }

    /// All devices.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// The device with the given id.
    pub fn device(&self, id: DeviceId) -> &Arc<Device> {
        &self.devices[id.0]
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` if no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Resolves a device spec (alias or full name) to an id.
    pub fn resolve(&self, spec: &str) -> Option<DeviceId> {
        self.aliases.get(spec).copied()
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Cluster::new()
    }
}

#[cfg(test)]
mod cluster_tests {
    use super::*;

    #[test]
    fn aliases_resolve() {
        let mut c = Cluster::new();
        c.add_device(0, DeviceProfile::cpu());
        let g0 = c.add_device(0, DeviceProfile::gpu_k40());
        let g1 = c.add_device(0, DeviceProfile::gpu_k40());
        let g2 = c.add_device(1, DeviceProfile::gpu_k40());
        assert_eq!(c.resolve("/machine:0/gpu:0"), Some(g0));
        assert_eq!(c.resolve("/machine:0/gpu:1"), Some(g1));
        assert_eq!(c.resolve("/machine:1/gpu:0"), Some(g2));
        assert_eq!(c.resolve("/machine:0/cpu:0"), Some(DeviceId(0)));
        assert_eq!(c.resolve("/machine:9/gpu:0"), None);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn fork_rebuilds_topology_with_fresh_devices() {
        let mut c = Cluster::new();
        c.add_device(0, DeviceProfile::cpu());
        c.add_device(1, DeviceProfile::gpu_k40());
        let f = c.fork();
        assert_eq!(f.len(), c.len());
        for (a, b) in c.devices().iter().zip(f.devices()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.machine(), b.machine());
            assert!(!Arc::ptr_eq(a, b), "fork must not share device state");
        }
        assert_eq!(f.resolve("/machine:1/gpu:0"), c.resolve("/machine:1/gpu:0"));
    }

    #[test]
    fn convenience_builders() {
        let c = Cluster::gpu_machines(3, DeviceProfile::gpu_v100());
        assert_eq!(c.len(), 3);
        assert_eq!(c.device(DeviceId(2)).machine(), 2);
        let c = Cluster::single_machine_gpus(2, DeviceProfile::gpu_k40());
        assert_eq!(c.len(), 3);
        assert!(c.resolve("/machine:0/gpu:1").is_some());
    }
}
