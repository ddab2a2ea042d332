//! A registry of heartbeat monitors.
//!
//! The original Application Heartbeats implementation exposes heartbeats
//! through a shared-memory registry so that external observers (such as the
//! PowerDial control daemon) can attach to a running application. This module
//! provides the equivalent within one process: monitors are registered by
//! name and observers look them up by [`MonitorId`] or name.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::HeartbeatError;
use crate::monitor::{HeartbeatMonitor, MonitorConfig};

/// Identifier of a monitor within a [`HeartbeatRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MonitorId(u64);

impl MonitorId {
    /// Returns the raw identifier value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

/// A collection of named heartbeat monitors.
///
/// # Example
///
/// ```
/// use powerdial_heartbeats::{HeartbeatRegistry, MonitorConfig, Timestamp};
///
/// # fn main() -> Result<(), powerdial_heartbeats::HeartbeatError> {
/// let mut registry = HeartbeatRegistry::new();
/// let id = registry.register(MonitorConfig::new("x264"))?;
/// registry.monitor_mut(id)?.heartbeat(Timestamp::from_millis(0));
/// registry.monitor_mut(id)?.heartbeat(Timestamp::from_millis(40));
/// assert_eq!(registry.monitor(id)?.total_beats(), 2);
/// assert!(registry.find_by_name("x264").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct HeartbeatRegistry {
    next_id: u64,
    monitors: HashMap<u64, HeartbeatMonitor>,
    names: HashMap<String, u64>,
}

impl HeartbeatRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        HeartbeatRegistry::default()
    }

    /// Registers a new monitor and returns its identifier.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::DuplicateMonitorName`] if a monitor with the
    /// same name is already registered.
    pub fn register(&mut self, config: MonitorConfig) -> Result<MonitorId, HeartbeatError> {
        let name = config.name().to_string();
        if self.names.contains_key(&name) {
            return Err(HeartbeatError::DuplicateMonitorName { name });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.monitors.insert(id, HeartbeatMonitor::new(config));
        self.names.insert(name, id);
        Ok(MonitorId(id))
    }

    /// Removes a monitor, returning it if it was registered.
    ///
    /// O(1): the name→id index entry is removed by the monitor's own name
    /// rather than by scanning every entry, so register/unregister churn
    /// (applications attaching to and detaching from a long-running daemon)
    /// stays constant-time regardless of how many monitors are registered.
    pub fn unregister(&mut self, id: MonitorId) -> Option<HeartbeatMonitor> {
        let monitor = self.monitors.remove(&id.0)?;
        let removed = self.names.remove(monitor.config().name());
        debug_assert_eq!(
            removed,
            Some(id.0),
            "name index out of sync with monitor map"
        );
        Some(monitor)
    }

    /// Returns a shared reference to a monitor.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::UnknownMonitor`] if `id` is not registered.
    pub fn monitor(&self, id: MonitorId) -> Result<&HeartbeatMonitor, HeartbeatError> {
        self.monitors
            .get(&id.0)
            .ok_or(HeartbeatError::UnknownMonitor { id: id.0 })
    }

    /// Returns an exclusive reference to a monitor.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::UnknownMonitor`] if `id` is not registered.
    pub fn monitor_mut(&mut self, id: MonitorId) -> Result<&mut HeartbeatMonitor, HeartbeatError> {
        self.monitors
            .get_mut(&id.0)
            .ok_or(HeartbeatError::UnknownMonitor { id: id.0 })
    }

    /// Looks up a monitor id by application name.
    pub fn find_by_name(&self, name: &str) -> Option<MonitorId> {
        self.names.get(name).copied().map(MonitorId)
    }

    /// Number of registered monitors.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Returns true when no monitors are registered.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Iterates over `(id, monitor)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (MonitorId, &HeartbeatMonitor)> {
        self.monitors.iter().map(|(id, m)| (MonitorId(*id), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    #[test]
    fn register_and_lookup_by_name() {
        let mut registry = HeartbeatRegistry::new();
        let a = registry.register(MonitorConfig::new("a")).unwrap();
        let b = registry.register(MonitorConfig::new("b")).unwrap();
        assert_ne!(a, b);
        assert_eq!(registry.find_by_name("a"), Some(a));
        assert_eq!(registry.find_by_name("b"), Some(b));
        assert_eq!(registry.find_by_name("missing"), None);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut registry = HeartbeatRegistry::new();
        registry.register(MonitorConfig::new("dup")).unwrap();
        let err = registry.register(MonitorConfig::new("dup")).unwrap_err();
        assert!(matches!(err, HeartbeatError::DuplicateMonitorName { .. }));
    }

    #[test]
    fn unknown_monitor_errors() {
        let registry = HeartbeatRegistry::new();
        assert!(matches!(
            registry.monitor(MonitorId(99)),
            Err(HeartbeatError::UnknownMonitor { id: 99 })
        ));
    }

    #[test]
    fn unregister_removes_name_mapping() {
        let mut registry = HeartbeatRegistry::new();
        let id = registry.register(MonitorConfig::new("gone")).unwrap();
        assert!(registry.unregister(id).is_some());
        assert!(registry.find_by_name("gone").is_none());
        assert!(registry.unregister(id).is_none());
        assert!(registry.is_empty());
    }

    #[test]
    fn name_index_survives_register_unregister_churn() {
        // The name→id index must stay exactly in sync with the monitor map
        // through arbitrary register/unregister interleavings, including
        // re-registering a freed name (which must get a fresh id).
        let mut registry = HeartbeatRegistry::new();
        let mut live: Vec<(String, MonitorId)> = Vec::new();
        // 95 rounds: names 0–4 end registered (19 toggles), 5–9 end free.
        for round in 0..95u64 {
            let name = format!("app-{}", round % 10);
            if let Some(position) = live.iter().position(|(n, _)| *n == name) {
                let (_, id) = live.remove(position);
                assert!(registry.unregister(id).is_some());
                assert_eq!(registry.find_by_name(&name), None);
            } else {
                let id = registry.register(MonitorConfig::new(name.clone())).unwrap();
                assert_eq!(registry.find_by_name(&name), Some(id));
                live.push((name, id));
            }
            assert_eq!(registry.len(), live.len());
        }
        for (name, id) in &live {
            assert_eq!(registry.find_by_name(name), Some(*id));
        }
        // Re-registering a freed name yields a new id, still indexed.
        let (name, id) = live.pop().unwrap();
        registry.unregister(id).unwrap();
        let fresh = registry.register(MonitorConfig::new(name.clone())).unwrap();
        assert_ne!(fresh, id);
        assert_eq!(registry.find_by_name(&name), Some(fresh));
    }

    #[test]
    fn heartbeats_flow_through_registry() {
        let mut registry = HeartbeatRegistry::new();
        let id = registry.register(MonitorConfig::new("app")).unwrap();
        for i in 0..5u64 {
            registry
                .monitor_mut(id)
                .unwrap()
                .heartbeat(Timestamp::from_millis(i * 100));
        }
        assert_eq!(registry.monitor(id).unwrap().total_beats(), 5);
        let names: Vec<_> = registry
            .iter()
            .map(|(_, m)| m.config().name().to_string())
            .collect();
        assert_eq!(names, vec!["app".to_string()]);
    }
}
