//! Identifier newtypes for nodes and sites.

use std::fmt;

/// Identifies a node (an edge VM or a cloud VM) in the topology.
///
/// Node ids are dense indices assigned by [`TopologyBuilder`] in creation
/// order, so they can index arrays and matrices directly.
///
/// [`TopologyBuilder`]: crate::TopologyBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifies a site: an edge cloud or the central cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(v: u32) -> Self {
        SiteId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(SiteId(1).to_string(), "s1");
    }

    #[test]
    fn index_and_from() {
        assert_eq!(NodeId::from(7u32).index(), 7);
        assert_eq!(SiteId::from(2u32).index(), 2);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(SiteId(0) < SiteId(5));
    }
}
