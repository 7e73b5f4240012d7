//! Shared typed identifiers.
//!
//! Each layer indexes into dense `Vec`s; these newtypes keep a pCPU index
//! from being confused with a vCPU index at compile time. The macro keeps
//! the definitions uniform and cheap.

/// Defines a `usize`-backed index newtype with the common trait surface.
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub usize);

        $crate::snap_struct!($name(index));

        impl $name {
            /// The underlying dense index.
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Debug::fmt(self, f)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i)
            }
        }
    };
}

define_id!(
    /// A physical CPU index within the host.
    PcpuId,
    "pcpu"
);

define_id!(
    /// A domain (virtual machine) index within the host.
    DomId,
    "dom"
);

define_id!(
    /// A virtual CPU index *within its domain*.
    VcpuId,
    "vcpu"
);

define_id!(
    /// A guest thread index within its domain.
    ThreadId,
    "tid"
);

/// A fully qualified vCPU: domain plus in-domain index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalVcpu {
    /// The owning domain.
    pub dom: DomId,
    /// The vCPU index within the domain.
    pub vcpu: VcpuId,
}

crate::snap_struct!(GlobalVcpu { dom, vcpu });

impl GlobalVcpu {
    /// Convenience constructor.
    pub fn new(dom: DomId, vcpu: VcpuId) -> Self {
        GlobalVcpu { dom, vcpu }
    }
}

impl std::fmt::Debug for GlobalVcpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.dom, self.vcpu)
    }
}

impl std::fmt::Display for GlobalVcpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", PcpuId(3)), "pcpu3");
        assert_eq!(format!("{}", DomId(1)), "dom1");
        assert_eq!(format!("{:?}", VcpuId(0)), "vcpu0");
        assert_eq!(
            format!("{}", GlobalVcpu::new(DomId(2), VcpuId(1))),
            "dom2.vcpu1"
        );
    }

    #[test]
    fn ids_order_by_index() {
        assert!(PcpuId(1) < PcpuId(2));
        assert_eq!(VcpuId::from(4).index(), 4);
    }
}
