//! One module per paper table/figure. Each exposes a declarative
//! [`points`](crate::experiments::Experiment::points) list (the
//! simulations it needs) and a
//! [`render`](crate::experiments::Experiment::render) pass that turns
//! each declared point, paired with its scheduled result, into tables and
//! CSVs. Row labels come from the point itself, so each grid is written
//! once, in `points`. The scheduler in [`crate::scheduler`] owns all
//! execution; no experiment runs a simulation inline.

pub mod fault;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig2;
pub mod multitenant;
pub mod scalability;
pub mod table1;
pub mod table3;

use anykey_workload::{spec, WorkloadSpec};

use crate::common::ExpCtx;
use crate::scheduler::{Point, PointResult};

/// A declarative experiment: a point list plus an order-preserving
/// renderer.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable experiment id as used on the command line.
    pub id: &'static str,
    /// Declares the simulations this experiment needs, in row order.
    pub points: fn(&ExpCtx) -> Vec<Point>,
    /// Renders tables/CSVs from each declared point paired with its
    /// result, in exactly the order [`Experiment::points`] declared them.
    pub render: fn(&ExpCtx, &[(&Point, &PointResult)]),
}

/// All experiments in paper order.
pub const ALL: [Experiment; 16] = [
    Experiment {
        id: "table1",
        points: table1::points,
        render: table1::render,
    },
    Experiment {
        id: "fig2",
        points: fig2::points,
        render: fig2::render,
    },
    Experiment {
        id: "table3",
        points: table3::points,
        render: table3::render,
    },
    Experiment {
        id: "fig10",
        points: fig10::points,
        render: fig10::render,
    },
    Experiment {
        id: "fig11",
        points: fig11::points,
        render: fig11::render,
    },
    Experiment {
        id: "fig12",
        points: fig12::points,
        render: fig12::render,
    },
    Experiment {
        id: "fig13",
        points: fig13::points,
        render: fig13::render,
    },
    Experiment {
        id: "fig14",
        points: fig14::points,
        render: fig14::render,
    },
    Experiment {
        id: "fig15",
        points: fig15::points,
        render: fig15::render,
    },
    Experiment {
        id: "fig16",
        points: fig16::points,
        render: fig16::render,
    },
    Experiment {
        id: "fig17",
        points: fig17::points,
        render: fig17::render,
    },
    Experiment {
        id: "fig18",
        points: fig18::points,
        render: fig18::render,
    },
    Experiment {
        id: "fig19",
        points: fig19::points,
        render: fig19::render,
    },
    Experiment {
        id: "scalability",
        points: scalability::points,
        render: scalability::render,
    },
    Experiment {
        id: "multitenant",
        points: multitenant::points,
        render: multitenant::render,
    },
    Experiment {
        id: "fault",
        points: fault::points,
        render: fault::render,
    },
];

/// Looks an experiment up by id.
pub fn by_id(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}

/// All experiment ids, for usage strings.
pub fn ids() -> Vec<&'static str> {
    ALL.iter().map(|e| e.id).collect()
}

/// The paper workloads named by `names`, in order.
fn named(names: &[&str]) -> Vec<WorkloadSpec> {
    let find = |name: &&str| spec::by_name(name).expect("known workload name");
    names.iter().map(find).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::ALL;
    use crate::common::{ExpCtx, Scale};

    /// `bench-diff` pairs points by key and takes the first match, so a
    /// repeated key would compare one row twice and skip the other.
    #[test]
    fn point_keys_are_unique_and_name_their_experiment() {
        for scale in [Scale::default(), Scale::default().quick()] {
            let ctx = ExpCtx::new(scale);
            let mut keys = BTreeSet::new();
            for exp in ALL {
                for p in (exp.points)(&ctx) {
                    assert_eq!(p.experiment, exp.id, "{}", p.key);
                    assert!(p.key.starts_with(&format!("{}/", exp.id)), "{}", p.key);
                    assert!(keys.insert(p.key.clone()), "repeated key {}", p.key);
                }
            }
        }
    }
}
