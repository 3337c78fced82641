//! The cluster as one node sees it.

use crate::ring::HashRing;

/// A static cluster topology: the ordered peer list every node was
/// started with, this node's own position in it, and the replication
/// factor (how many owner nodes each session's ingest is spread
/// across). All routing decisions derive deterministically from these
/// three values, so identically configured nodes agree on placement
/// without talking to each other.
#[derive(Debug, Clone)]
pub struct Topology {
    peers: Vec<String>,
    self_id: usize,
    replication: usize,
    ring: HashRing,
}

impl Topology {
    /// Builds a topology. `peers` is the full ordered peer list
    /// (including this node), `self_id` this node's index in it, and
    /// `replication` the owner count per session (clamped to
    /// `1..=peers.len()`).
    pub fn new(peers: Vec<String>, self_id: usize, replication: usize) -> Result<Self, String> {
        if peers.is_empty() {
            return Err("a federation topology needs at least one peer".into());
        }
        if self_id >= peers.len() {
            return Err(format!(
                "self id {self_id} is out of range for a {}-peer list",
                peers.len()
            ));
        }
        let mut dedup = peers.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != peers.len() {
            return Err("peer list contains duplicate addresses".into());
        }
        let ring = HashRing::new(&peers);
        Ok(Topology {
            replication: replication.clamp(1, peers.len()),
            self_id,
            ring,
            peers,
        })
    }

    /// Parses a `host:port,host:port,...` peer list (whitespace
    /// tolerated, empty segments rejected).
    pub fn parse_peer_list(list: &str) -> Result<Vec<String>, String> {
        let peers: Vec<String> = list
            .split(',')
            .map(|p| p.trim().to_owned())
            .collect::<Vec<_>>();
        if peers.iter().any(|p| p.is_empty()) {
            return Err(format!("peer list `{list}` contains an empty entry"));
        }
        Ok(peers)
    }

    /// The ordered peer address list.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// This node's index in the peer list.
    pub fn self_id(&self) -> usize {
        self.self_id
    }

    /// The replication factor (owners per session).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The owner peers of `session`, in ring order.
    pub fn owners(&self, session: u64) -> Vec<usize> {
        self.ring.owners(session, self.replication)
    }

    /// Allocates cluster-unique session ids without coordination: node
    /// `k` of `n` only ever assigns ids `≡ k (mod n)`. Returns the
    /// smallest id in this node's residue class that is strictly
    /// greater than `floor`.
    pub fn next_local_id(&self, floor: u64) -> u64 {
        let n = self.peers.len() as u64;
        let k = self.self_id as u64;
        let mut id = (floor / n) * n + k;
        while id <= floor {
            id += n;
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(n: usize, self_id: usize, rf: usize) -> Topology {
        let peers = (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect();
        Topology::new(peers, self_id, rf).unwrap()
    }

    #[test]
    fn validates_inputs() {
        assert!(Topology::new(vec![], 0, 1).is_err());
        assert!(Topology::new(vec!["a:1".into()], 1, 1).is_err());
        assert!(Topology::new(vec!["a:1".into(), "a:1".into()], 0, 1).is_err());
        assert_eq!(topo(3, 0, 99).replication(), 3);
        assert_eq!(topo(3, 0, 0).replication(), 1);
    }

    #[test]
    fn parse_peer_list_splits_and_trims() {
        assert_eq!(
            Topology::parse_peer_list("a:1, b:2 ,c:3").unwrap(),
            vec!["a:1", "b:2", "c:3"]
        );
        assert!(Topology::parse_peer_list("a:1,,b:2").is_err());
    }

    #[test]
    fn all_nodes_agree_on_owners() {
        let views: Vec<Topology> = (0..3).map(|i| topo(3, i, 2)).collect();
        for session in 0..100u64 {
            let reference = views[0].owners(session);
            assert_eq!(reference.len(), 2);
            for view in &views[1..] {
                assert_eq!(view.owners(session), reference);
            }
            let owned_by = views
                .iter()
                .filter(|v| reference.contains(&v.self_id()))
                .count();
            assert_eq!(owned_by, 2);
        }
    }

    #[test]
    fn next_local_id_stays_in_residue_class_and_advances() {
        let t = topo(3, 1, 2);
        let a = t.next_local_id(0);
        assert_eq!(a % 3, 1);
        assert!(a > 0);
        let b = t.next_local_id(a);
        assert_eq!(b, a + 3);
        // Ids from different nodes can never collide.
        let other = topo(3, 2, 2);
        assert_ne!(other.next_local_id(0) % 3, a % 3);
    }
}
