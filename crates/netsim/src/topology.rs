//! Topology: nodes grouped into edge-cloud and central-cloud sites.

use crate::id::{NodeId, SiteId};

/// Classifies a site as an edge cloud or the central cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A resource-constrained edge cloud (e.g. a half rack in a central
    /// office).
    Edge,
    /// The central cloud (AWS in the paper's testbed).
    Cloud,
}

#[derive(Debug, Clone)]
struct Site {
    kind: SiteKind,
    nodes: Vec<NodeId>,
}

/// An immutable description of which nodes exist and which site each
/// belongs to.
///
/// Build one with [`TopologyBuilder`].
#[derive(Debug, Clone)]
pub struct Topology {
    sites: Vec<Site>,
    node_site: Vec<SiteId>,
}

impl Topology {
    /// Total number of nodes (edge + cloud).
    pub fn node_count(&self) -> usize {
        self.node_site.len()
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The site a node belongs to.
    ///
    /// # Panics
    ///
    /// Panics for an unknown node id.
    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.node_site[node.index()]
    }

    /// The kind of a site.
    ///
    /// # Panics
    ///
    /// Panics for an unknown site id.
    pub fn site_kind(&self, site: SiteId) -> SiteKind {
        self.sites[site.index()].kind
    }

    /// Nodes belonging to `site` in id order.
    pub fn nodes_in(&self, site: SiteId) -> &[NodeId] {
        &self.sites[site.index()].nodes
    }

    /// All edge nodes in id order.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        self.sites
            .iter()
            .filter(|s| s.kind == SiteKind::Edge)
            .flat_map(|s| s.nodes.iter().copied())
            .collect()
    }

    /// All cloud nodes in id order.
    pub fn cloud_nodes(&self) -> Vec<NodeId> {
        self.sites
            .iter()
            .filter(|s| s.kind == SiteKind::Cloud)
            .flat_map(|s| s.nodes.iter().copied())
            .collect()
    }

    /// All edge sites in id order.
    pub fn edge_sites(&self) -> Vec<SiteId> {
        (0..self.sites.len() as u32)
            .map(SiteId)
            .filter(|s| self.site_kind(*s) == SiteKind::Edge)
            .collect()
    }

    /// All cloud sites in id order.
    pub fn cloud_sites(&self) -> Vec<SiteId> {
        (0..self.sites.len() as u32)
            .map(SiteId)
            .filter(|s| self.site_kind(*s) == SiteKind::Cloud)
            .collect()
    }

    /// True when both nodes are in the same site.
    pub fn same_site(&self, a: NodeId, b: NodeId) -> bool {
        self.site_of(a) == self.site_of(b)
    }

    /// True when the node belongs to a cloud site.
    pub fn is_cloud_node(&self, node: NodeId) -> bool {
        self.site_kind(self.site_of(node)) == SiteKind::Cloud
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_site.len() as u32).map(NodeId)
    }
}

/// Builds a [`Topology`] site by site.
///
/// # Example
///
/// ```
/// use ef_netsim::{TopologyBuilder, SiteKind};
///
/// // The paper's testbed: 20 edge nodes in 10 edge clouds + a 4-VM cloud.
/// let mut b = TopologyBuilder::new();
/// for _ in 0..10 {
///     b = b.edge_site(2);
/// }
/// let topo = b.cloud_site(4).build();
/// assert_eq!(topo.edge_nodes().len(), 20);
/// assert_eq!(topo.cloud_nodes().len(), 4);
/// assert_eq!(topo.site_count(), 11);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    sites: Vec<(SiteKind, usize)>,
}

impl TopologyBuilder {
    /// Starts an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an edge cloud with `nodes` nodes.
    pub fn edge_site(mut self, nodes: usize) -> Self {
        self.sites.push((SiteKind::Edge, nodes));
        self
    }

    /// Adds a central-cloud site with `nodes` nodes.
    pub fn cloud_site(mut self, nodes: usize) -> Self {
        self.sites.push((SiteKind::Cloud, nodes));
        self
    }

    /// Adds `count` edge clouds of `nodes_each` nodes.
    pub fn edge_sites(mut self, count: usize, nodes_each: usize) -> Self {
        for _ in 0..count {
            self.sites.push((SiteKind::Edge, nodes_each));
        }
        self
    }

    /// Finalizes the topology, assigning dense node and site ids in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics when no site was added or any site is empty.
    pub fn build(self) -> Topology {
        assert!(!self.sites.is_empty(), "topology needs at least one site");
        let mut sites = Vec::with_capacity(self.sites.len());
        let mut node_site = Vec::new();
        let mut next_node = 0u32;
        for (site_idx, (kind, count)) in self.sites.into_iter().enumerate() {
            assert!(count > 0, "site {site_idx} has no nodes");
            let mut nodes = Vec::with_capacity(count);
            for _ in 0..count {
                nodes.push(NodeId(next_node));
                node_site.push(SiteId(site_idx as u32));
                next_node += 1;
            }
            sites.push(Site { kind, nodes });
        }
        Topology { sites, node_site }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Topology {
        TopologyBuilder::new()
            .edge_site(2)
            .edge_site(3)
            .cloud_site(1)
            .build()
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let t = sample();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.site_count(), 3);
        assert_eq!(t.site_of(NodeId(0)), SiteId(0));
        assert_eq!(t.site_of(NodeId(1)), SiteId(0));
        assert_eq!(t.site_of(NodeId(4)), SiteId(1));
        assert_eq!(t.site_of(NodeId(5)), SiteId(2));
    }

    #[test]
    fn edge_and_cloud_split() {
        let t = sample();
        assert_eq!(
            t.edge_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(t.cloud_nodes(), vec![NodeId(5)]);
        assert!(t.is_cloud_node(NodeId(5)));
        assert!(!t.is_cloud_node(NodeId(0)));
        assert_eq!(t.edge_sites(), vec![SiteId(0), SiteId(1)]);
        assert_eq!(t.cloud_sites(), vec![SiteId(2)]);
    }

    #[test]
    fn same_site_checks() {
        let t = sample();
        assert!(t.same_site(NodeId(0), NodeId(1)));
        assert!(!t.same_site(NodeId(1), NodeId(2)));
    }

    #[test]
    fn nodes_in_site() {
        let t = sample();
        assert_eq!(t.nodes_in(SiteId(1)), &[NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(t.site_kind(SiteId(2)), SiteKind::Cloud);
    }

    #[test]
    fn bulk_edge_sites() {
        let t = TopologyBuilder::new()
            .edge_sites(10, 2)
            .cloud_site(4)
            .build();
        assert_eq!(t.edge_nodes().len(), 20);
        assert_eq!(t.site_count(), 11);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_topology_panics() {
        TopologyBuilder::new().build();
    }

    #[test]
    #[should_panic(expected = "has no nodes")]
    fn empty_site_panics() {
        TopologyBuilder::new().edge_site(0).build();
    }

    #[test]
    fn nodes_iterator_covers_all() {
        let t = sample();
        assert_eq!(t.nodes().count(), 6);
    }
}
