//! Typed identifiers for simulation entities.
//!
//! Newtypes keep node, device, CPU, vCPU and application identifiers from
//! being confused with one another (C-NEWTYPE). All of them are cheap,
//! `Copy`, and index into the [`crate::world::World`]'s entity tables.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a physical machine (or, in nested scenarios, the machine
    /// hosting a hypervisor) in the simulated world.
    NodeId,
    "node"
);
id_type!(
    /// Identifies a network device (NIC, switch, bridge, veth, …) in the
    /// world's global device table.
    DeviceId,
    "dev"
);
id_type!(
    /// Identifies a virtual CPU managed by a hypervisor scheduler.
    VcpuId,
    "vcpu"
);
id_type!(
    /// Identifies an application (workload endpoint) in the world.
    AppId,
    "app"
);

/// A physical CPU index within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(pub u16);

impl CpuId {
    /// The raw index value.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(DeviceId(0).to_string(), "dev0");
        assert_eq!(VcpuId(1).to_string(), "vcpu1");
        assert_eq!(AppId(9).to_string(), "app9");
        assert_eq!(CpuId(2).to_string(), "cpu2");
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(DeviceId(7).index(), 7);
        assert_eq!(CpuId(3).index(), 3);
    }
}
