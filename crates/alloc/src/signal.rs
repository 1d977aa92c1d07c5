//! The controller's interface to the datapath — "the inputs and outputs
//! to the FSM ... determined as part of the allocation" (§2). Their
//! `Display` forms (`fu1=+`, `fu1.p0<-r3`, `r5<=fu1`) are the names
//! reports, DOT output and microprogram listings print.

use std::fmt;

use hls_cdfg::{Fx, OpKind};

/// Where a bound operand comes from, against the datapath's global
/// register and FU tables.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Source {
    /// A register, read at the start of the step.
    Reg(usize),
    /// A wired constant.
    Const(Fx),
    /// The output of a functional unit computing in the same step.
    Fu(usize),
    /// A free op (a wired shift or mux) chained onto its first operand's
    /// source in the same step.
    Free(OpKind, Box<Source>),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Reg(r) => write!(f, "r{r}"),
            Source::Const(c) => write!(f, "#{c}"),
            Source::Fu(u) => write!(f, "fu{u}"),
            Source::Free(kind, inner) => write!(f, "{inner}{kind}"),
        }
    }
}

/// One control signal: what the controller asserts in a state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Functional unit `fu` performs `kind` (`fu1=+`).
    FuOp {
        /// FU index.
        fu: usize,
        /// The operation selected.
        kind: OpKind,
    },
    /// Input port `port` of `fu` selects `src` (`fu1.p0<-r3`).
    PortSel {
        /// FU index.
        fu: usize,
        /// Input port.
        port: usize,
        /// The selected source.
        src: Source,
    },
    /// Register `reg` loads `src` at the end of the step (`r5<=fu1`).
    Load {
        /// Register index.
        reg: usize,
        /// The loaded source.
        src: Source,
    },
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::FuOp { fu, kind } => write!(f, "fu{fu}={kind}"),
            Signal::PortSel { fu, port, src } => write!(f, "fu{fu}.p{port}<-{src}"),
            Signal::Load { reg, src } => write!(f, "r{reg}<={src}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signals_print_their_control_names() {
        let chain = Source::Free(OpKind::Shr, Box::new(Source::Reg(2)));
        let cases = [
            (
                Signal::FuOp {
                    fu: 1,
                    kind: OpKind::Add,
                },
                "fu1=+",
            ),
            (
                Signal::PortSel {
                    fu: 0,
                    port: 1,
                    src: Source::Const(Fx::from_i64(5)),
                },
                "fu0.p1<-#5",
            ),
            (
                Signal::PortSel {
                    fu: 10,
                    port: 0,
                    src: chain.clone(),
                },
                "fu10.p0<-r2>>",
            ),
            (
                Signal::Load {
                    reg: 5,
                    src: Source::Fu(1),
                },
                "r5<=fu1",
            ),
            (
                Signal::Load {
                    reg: 3,
                    src: Source::Free(OpKind::Shl, Box::new(chain)),
                },
                "r3<=r2>><<",
            ),
        ];
        for (signal, name) in cases {
            assert_eq!(signal.to_string(), name);
        }
    }
}
