//! Generic fabric graph: switches, endpoints, directed links, and flows.
//!
//! Links are *directed* (a physical cable is two directed links), each with
//! its own capacity, so asymmetric traffic contends correctly. Endpoints are
//! NICs — Frontier exposes four per node — and carry their own injection/
//! ejection links whose capacity already includes the protocol efficiency
//! (the ~70 % of line rate a NIC's payload throughput reaches, which is why
//! Fig. 6's uncontended peak sits at 17.5 of 25 GB/s).

use frontier_sim_core::prelude::*;

/// Index of a switch in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

/// Index of an endpoint (NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

/// Index of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Role of a link in the topology, used by routing and by the taper
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkLevel {
    /// Endpoint → switch (injection).
    Injection,
    /// Switch → endpoint (ejection).
    Ejection,
    /// Switch ↔ switch within a group (dragonfly L1) or within a tier
    /// (fat-tree edge/aggregation).
    Local,
    /// Group ↔ group (dragonfly L2 / global), or aggregation ↔ core.
    Global,
}

/// One directed link.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    pub capacity: Bandwidth,
    pub level: LinkLevel,
}

/// A unidirectional traffic stream between two endpoints, with its routed
/// path and the application (VNI) it belongs to.
#[derive(Debug, Clone)]
pub struct Flow {
    pub src: EndpointId,
    pub dst: EndpointId,
    /// Directed links the flow traverses, in order.
    pub path: Vec<LinkId>,
    /// Offered demand; the solver never allocates more than this.
    /// Use `Bandwidth(f64::INFINITY)` for saturating flows.
    pub demand: Bandwidth,
    /// Application id (Slingshot VNI); congestion control isolates by VNI.
    pub vni: u32,
}

impl Flow {
    /// A saturating flow (always wants more bandwidth).
    pub fn saturating(src: EndpointId, dst: EndpointId, path: Vec<LinkId>, vni: u32) -> Self {
        Flow {
            src,
            dst,
            path,
            demand: Bandwidth::bytes_per_sec(f64::INFINITY),
            vni,
        }
    }
}

/// The fabric graph. Construction is append-only through the builder
/// methods; routing layers hold indices into it.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    links: Vec<Link>,
    /// Switch that owns each endpoint.
    endpoint_switch: Vec<SwitchId>,
    /// Injection link of each endpoint (endpoint→switch).
    endpoint_up: Vec<LinkId>,
    /// Ejection link of each endpoint (switch→endpoint).
    endpoint_down: Vec<LinkId>,
    num_switches: u32,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` switches, returning the id of the first.
    pub fn add_switches(&mut self, n: u32) -> SwitchId {
        let first = self.num_switches;
        self.num_switches += n;
        SwitchId(first)
    }

    pub fn num_switches(&self) -> u32 {
        self.num_switches
    }

    pub fn num_endpoints(&self) -> u32 {
        self.endpoint_switch.len() as u32
    }

    pub fn num_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Attach an endpoint to `sw` with the given per-direction capacity.
    pub fn add_endpoint(&mut self, sw: SwitchId, capacity: Bandwidth) -> EndpointId {
        assert!(sw.0 < self.num_switches, "attach to unknown switch");
        let ep = EndpointId(self.endpoint_switch.len() as u32);
        let up = self.add_link(capacity, LinkLevel::Injection);
        let down = self.add_link(capacity, LinkLevel::Ejection);
        self.endpoint_switch.push(sw);
        self.endpoint_up.push(up);
        self.endpoint_down.push(down);
        ep
    }

    /// Add a directed link (not endpoint-attached); returns its id.
    pub fn add_link(&mut self, capacity: Bandwidth, level: LinkLevel) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { capacity, level });
        id
    }

    /// Add a bidirectional switch-to-switch connection; returns the two
    /// directed link ids (a→b, b→a).
    pub fn add_duplex(&mut self, capacity: Bandwidth, level: LinkLevel) -> (LinkId, LinkId) {
        (
            self.add_link(capacity, level),
            self.add_link(capacity, level),
        )
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    pub fn endpoint_switch(&self, ep: EndpointId) -> SwitchId {
        self.endpoint_switch[ep.0 as usize]
    }

    /// Injection link of an endpoint.
    pub fn injection_link(&self, ep: EndpointId) -> LinkId {
        self.endpoint_up[ep.0 as usize]
    }

    /// Ejection link of an endpoint.
    pub fn ejection_link(&self, ep: EndpointId) -> LinkId {
        self.endpoint_down[ep.0 as usize]
    }

    /// Aggregate capacity of all links at a level (per direction for
    /// injection/ejection, summed over directed links otherwise).
    pub fn level_capacity(&self, level: LinkLevel) -> Bandwidth {
        self.links
            .iter()
            .filter(|l| l.level == level)
            .map(|l| l.capacity)
            .sum()
    }

    /// Override a link's capacity (failure studies zero a dead link on a
    /// cloned topology to model it for solvers that read capacities from
    /// the graph, e.g. the reference oracle in warm-start parity tests).
    pub fn set_capacity(&mut self, id: LinkId, capacity: Bandwidth) {
        self.links[id.0 as usize].capacity = capacity;
    }
}

/// Disjoint-set forest (union by rank, path halving) over dense `u32`
/// ids. The solver unions flows that share a link to find independent
/// interference components; each component's max-min solve touches a
/// disjoint link set, so each component is solved on its own.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets `0..n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving: point every other node at its grandparent.
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_topology() {
        let mut t = Topology::new();
        let s0 = t.add_switches(2);
        assert_eq!(s0, SwitchId(0));
        let e0 = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(17.5));
        let e1 = t.add_endpoint(SwitchId(1), Bandwidth::gb_s(17.5));
        let (ab, ba) = t.add_duplex(Bandwidth::gb_s(25.0), LinkLevel::Local);
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_endpoints(), 2);
        assert_eq!(t.num_links(), 6);
        assert_eq!(t.endpoint_switch(e0), SwitchId(0));
        assert_eq!(t.endpoint_switch(e1), SwitchId(1));
        assert_ne!(ab, ba);
        assert_eq!(t.link(ab).level, LinkLevel::Local);
    }

    #[test]
    fn injection_and_ejection_are_distinct() {
        let mut t = Topology::new();
        t.add_switches(1);
        let e = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
        assert_ne!(t.injection_link(e), t.ejection_link(e));
        assert_eq!(t.link(t.injection_link(e)).level, LinkLevel::Injection);
        assert_eq!(t.link(t.ejection_link(e)).level, LinkLevel::Ejection);
    }

    #[test]
    #[should_panic(expected = "unknown switch")]
    fn endpoint_needs_valid_switch() {
        let mut t = Topology::new();
        t.add_endpoint(SwitchId(3), Bandwidth::gb_s(1.0));
    }

    #[test]
    fn level_capacity_sums() {
        let mut t = Topology::new();
        t.add_switches(2);
        t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
        t.add_duplex(Bandwidth::gb_s(25.0), LinkLevel::Global);
        assert!((t.level_capacity(LinkLevel::Global).as_gb_s() - 50.0).abs() < 1e-9);
        assert!((t.level_capacity(LinkLevel::Injection).as_gb_s() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn saturating_flow_demand_is_infinite() {
        let f = Flow::saturating(EndpointId(0), EndpointId(1), vec![], 0);
        assert!(f.demand.as_bytes_per_sec().is_infinite());
    }

    #[test]
    fn set_capacity_overrides_link() {
        let mut t = Topology::new();
        let l = t.add_link(Bandwidth::gb_s(25.0), LinkLevel::Global);
        t.set_capacity(l, Bandwidth::bytes_per_sec(0.0));
        assert_eq!(t.link(l).capacity.as_bytes_per_sec(), 0.0);
    }

    #[test]
    fn union_find_merges_and_finds() {
        let mut uf = UnionFind::new(6);
        assert_ne!(uf.find(0), uf.find(1));
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.union(2, 3));
        assert!(uf.union(1, 3));
        assert_eq!(uf.find(0), uf.find(2));
        // 4 and 5 remain singletons, disjoint from the merged set.
        assert_ne!(uf.find(4), uf.find(5));
        assert_ne!(uf.find(4), uf.find(0));
    }

    #[test]
    fn union_find_component_count() {
        let mut uf = UnionFind::new(8);
        for i in 0..3 {
            uf.union(i, i + 1); // {0,1,2,3}
        }
        uf.union(5, 6); // {5,6}
        let mut roots = std::collections::HashSet::new();
        for i in 0..8 {
            roots.insert(uf.find(i));
        }
        assert_eq!(roots.len(), 4); // {0-3}, {4}, {5,6}, {7}
    }
}
