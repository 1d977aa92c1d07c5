//! The register-transfer-level structure: a netlist of library cells.
//!
//! "Structure refers to the set of interconnected components that make up
//! the system — something like a netlist" (§1.1).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

use hls_cdfg::{Arena, Id};

/// Port direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortDir {
    /// Module input.
    In,
    /// Module output.
    Out,
}

/// A top-level port.
#[derive(Clone, Debug, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Bit width.
    pub width: u8,
    /// The net the port drives / is driven by.
    pub net: NetId,
}

/// A wire bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct Net {
    /// Net name (unique).
    pub name: String,
    /// Bit width.
    pub width: u8,
}

/// Id of a [`Net`].
pub type NetId = Id<Net>;
/// Id of an [`Instance`].
pub type InstanceId = Id<Instance>;

/// An instantiated library cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// Instance name (unique).
    pub name: String,
    /// Library cell name (e.g. `"add_ripple"`).
    pub cell: Cow<'static, str>,
    /// Data width of this instance.
    pub width: u8,
    /// Pin connections as `(pin_name, net)` pairs.
    pub pins: Vec<(Cow<'static, str>, NetId)>,
}

/// An RT-level netlist.
///
/// # Examples
///
/// ```
/// use hls_rtl::{Netlist, PortDir};
///
/// let mut n = Netlist::new("adder");
/// let a = n.add_port("a", PortDir::In, 32);
/// let b = n.add_port("b", PortDir::In, 32);
/// let y = n.add_port("y", PortDir::Out, 32);
/// n.add_instance("u0", "add_ripple", 32, vec![
///     ("a".into(), a), ("b".into(), b), ("y".into(), y),
/// ]);
/// n.validate()?;
/// # Ok::<(), hls_rtl::NetlistError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    ports: Vec<Port>,
    nets: Arena<Net>,
    instances: Arena<Instance>,
}

/// A structural problem in a netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// Two instances (or nets) share a name.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// An instance pin references a net outside the netlist.
    DanglingPin {
        /// The instance name.
        instance: String,
    },
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            NetlistError::DanglingPin { instance } => {
                write!(f, "instance `{instance}` has a dangling pin")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

impl Netlist {
    /// Creates an empty netlist named `name`.
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>, width: u8) -> NetId {
        self.nets.alloc(Net {
            name: name.into(),
            width,
        })
    }

    /// Adds a top-level port (and its net), returning the net id.
    pub fn add_port(&mut self, name: impl Into<String>, dir: PortDir, width: u8) -> NetId {
        let name = name.into();
        let net = self.add_net(name.clone(), width);
        self.ports.push(Port {
            name,
            dir,
            width,
            net,
        });
        net
    }

    /// Adds a cell instance.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        cell: impl Into<Cow<'static, str>>,
        width: u8,
        pins: Vec<(Cow<'static, str>, NetId)>,
    ) -> InstanceId {
        self.instances.alloc(Instance {
            name: name.into(),
            cell: cell.into(),
            width,
            pins,
        })
    }

    /// The top-level ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Iterates nets.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter()
    }

    /// Looks up a net.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id]
    }

    /// Iterates instances.
    pub fn instances(&self) -> impl Iterator<Item = (InstanceId, &Instance)> {
        self.instances.iter()
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Instance counts by cell name, for reports.
    pub fn census(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for (_, inst) in self.instances.iter() {
            *out.entry(inst.cell.to_string()).or_insert(0) += 1;
        }
        out
    }

    /// Checks name uniqueness and pin sanity.
    ///
    /// # Errors
    ///
    /// Returns the first violation.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut names = HashSet::new();
        for (_, inst) in self.instances.iter() {
            if !names.insert(inst.name.clone()) {
                return Err(NetlistError::DuplicateName {
                    name: inst.name.clone(),
                });
            }
            for (_, net) in &inst.pins {
                if net.index() >= self.nets.len() {
                    return Err(NetlistError::DanglingPin {
                        instance: inst.name.clone(),
                    });
                }
            }
        }
        let mut net_names = HashSet::new();
        for (_, net) in self.nets.iter() {
            if !net_names.insert(net.name.clone()) {
                return Err(NetlistError::DuplicateName {
                    name: net.name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_port("a", PortDir::In, 8);
        let y = n.add_port("y", PortDir::Out, 8);
        let mid = n.add_net("mid", 8);
        n.add_instance(
            "u0",
            "add_ripple",
            8,
            vec![("a".into(), a), ("y".into(), mid)],
        );
        n.add_instance("u1", "reg_dff", 8, vec![("d".into(), mid), ("q".into(), y)]);
        n
    }

    #[test]
    fn build_and_census() {
        let n = tiny();
        n.validate().unwrap();
        assert_eq!(n.instance_count(), 2);
        assert_eq!(n.census()["add_ripple"], 1);
        assert_eq!(n.ports().len(), 2);
    }

    #[test]
    fn duplicate_instance_name_rejected() {
        let mut n = tiny();
        let a = n.add_net("x", 8);
        n.add_instance("u0", "mux2", 8, vec![("a".into(), a)]);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn duplicate_net_name_rejected() {
        let mut n = tiny();
        n.add_net("mid", 8);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DuplicateName { .. })
        ));
    }
}
