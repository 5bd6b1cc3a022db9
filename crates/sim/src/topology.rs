//! Network topologies: which latency model governs each directed link.
//!
//! The HOPE prototype ran on PVM over a LAN; the paper's motivating
//! arithmetic is a WAN. A [`Topology`] assigns a [`LatencyModel`] to every
//! ordered pair of nodes, with a default and per-link overrides, so
//! experiments can model co-located workers talking to a remote server, a
//! uniform LAN, or anything in between.

use std::collections::HashMap;

use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::VirtualDuration;

/// Node index within a topology (process ids map onto these 1:1 in the
/// runtime).
pub type NodeId = u32;

/// Per-link latency assignment.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    default: LatencyModel,
    overrides: HashMap<(NodeId, NodeId), LatencyModel>,
}

impl Topology {
    /// A uniform topology: every link uses `default`.
    pub fn uniform(default: LatencyModel) -> Self {
        Topology {
            default,
            overrides: HashMap::new(),
        }
    }

    /// A uniform LAN (100 µs links).
    pub fn lan() -> Self {
        Topology::uniform(LatencyModel::lan())
    }

    /// The paper's WAN: 15 ms one-way links (30 ms RTT, §3.1).
    pub fn coast_to_coast() -> Self {
        Topology::uniform(LatencyModel::coast_to_coast())
    }

    /// Co-located processes: zero latency everywhere.
    pub fn local() -> Self {
        Topology::uniform(LatencyModel::zero())
    }

    /// Override the latency of the directed link `from → to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, model: LatencyModel) -> &mut Self {
        self.overrides.insert((from, to), model);
        self
    }

    /// Override both directions between `a` and `b`.
    pub fn set_pair(&mut self, a: NodeId, b: NodeId, model: LatencyModel) -> &mut Self {
        self.overrides.insert((a, b), model.clone());
        self.overrides.insert((b, a), model);
        self
    }

    /// The model governing `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> &LatencyModel {
        if from == to {
            // A process messaging itself goes through a local pipe.
            const ZERO: LatencyModel = LatencyModel::Fixed(VirtualDuration::ZERO);
            return &ZERO;
        }
        self.overrides.get(&(from, to)).unwrap_or(&self.default)
    }

    /// Sample a latency for one message on `from → to`.
    pub fn sample(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> VirtualDuration {
        self.link(from, to).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_links() {
        let t = Topology::coast_to_coast();
        let mut rng = SimRng::new(1);
        assert_eq!(t.sample(0, 1, &mut rng), VirtualDuration::from_millis(15));
        assert_eq!(t.sample(5, 9, &mut rng), VirtualDuration::from_millis(15));
    }

    #[test]
    fn self_send_is_free_by_default() {
        let t = Topology::coast_to_coast();
        let mut rng = SimRng::new(1);
        assert_eq!(t.sample(3, 3, &mut rng), VirtualDuration::ZERO);
    }

    #[test]
    fn link_override_is_directional() {
        let mut t = Topology::lan();
        t.set_link(0, 1, LatencyModel::Fixed(VirtualDuration::from_millis(9)));
        let mut rng = SimRng::new(1);
        assert_eq!(t.sample(0, 1, &mut rng), VirtualDuration::from_millis(9));
        assert_eq!(t.sample(1, 0, &mut rng), VirtualDuration::from_micros(100));
    }

    #[test]
    fn pair_override_covers_both_directions() {
        let mut t = Topology::lan();
        t.set_pair(0, 1, LatencyModel::Fixed(VirtualDuration::from_millis(2)));
        let mut rng = SimRng::new(1);
        assert_eq!(t.sample(0, 1, &mut rng), VirtualDuration::from_millis(2));
        assert_eq!(t.sample(1, 0, &mut rng), VirtualDuration::from_millis(2));
    }

    #[test]
    fn default_topology_is_lan() {
        let t = Topology::default();
        let mut rng = SimRng::new(1);
        assert_eq!(t.sample(0, 1, &mut rng), VirtualDuration::from_micros(100));
    }
}
