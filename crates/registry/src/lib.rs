//! # registry — the unified machine registry
//!
//! The paper's PACE methodology is layered precisely so that machines and
//! models can be swapped independently ("the hardware object is simply
//! replaced", §6). This crate makes that real for the whole workspace: one
//! [`MachineSpec`] document carries **both** characterisations of a
//! machine —
//!
//! * the **analytic** half ([`pace_core::HardwareModel`]): the achieved-rate
//!   table and Eq. 3 send/recv/pingpong curves the closed-form predictors
//!   price communication with;
//! * the optional **sim** half ([`cluster_sim::MachineSpec`]): CPU rate
//!   curve, piecewise network segments, topology/noise parameters for the
//!   discrete-event engine.
//!
//! The four paper machines resolve by name ([`builtin`]); user machines
//! load from JSON spec files ([`load_file`]) with no Rust changes — see
//! `assets/machines/` for examples and EXPERIMENTS.md for the format.
//!
//! ```
//! let m = registry::builtin("opteron-gige").unwrap();
//! assert_eq!(m.analytic.name, "AMD Opteron 2GHz / Gigabit Ethernet");
//! let round_tripped = registry::MachineSpec::from_json(&m.to_json()).unwrap();
//! assert_eq!(round_tripped, m);
//! ```

mod json;
pub mod quoted;
pub mod sim;
mod workload_json;

pub use workload_json::{load_workload_file, workload_from_json, workload_to_json, MAX_RANKS};

use pace_core::HardwareModel;

/// Registry names of the four paper machines, in table order (Tables 1–3,
/// then the §6 hypothetical).
pub const BUILTIN_NAMES: [&str; 4] =
    ["pentium3-myrinet", "opteron-gige", "altix-numalink", "opteron-myrinet"];

/// A machine characterisation: registry id plus the analytic hardware
/// object and (optionally) its discrete-event twin.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Registry key (kebab-case, e.g. `"opteron-gige"`).
    pub id: String,
    /// The analytic hardware object (achieved rates + Eq. 3 curves).
    pub analytic: HardwareModel,
    /// The simulated machine, when the spec supports the `dessim` backend.
    pub sim: Option<cluster_sim::MachineSpec>,
}

impl MachineSpec {
    /// A spec with only the analytic half (no DES support).
    pub fn from_analytic(id: &str, analytic: HardwareModel) -> Self {
        MachineSpec { id: id.to_string(), analytic, sim: None }
    }

    /// The sim half, or a useful error naming the machine.
    pub fn sim_or_err(&self) -> Result<&cluster_sim::MachineSpec, String> {
        self.sim
            .as_ref()
            .ok_or_else(|| format!("machine '{}' has no simulated (DES) characterisation", self.id))
    }

    /// Scale the achieved compute rates of **both** halves — the Figs. 8–9
    /// "what if the processing rate improved" studies. The analytic half
    /// goes through [`HardwareModel::with_rate_scaled`] so predictions stay
    /// bit-identical with the pre-registry sweep path.
    pub fn with_rate_scaled(&self, factor: f64) -> MachineSpec {
        assert!(factor > 0.0);
        let sim = self.sim.as_ref().map(|s| {
            let mut scaled = s.clone();
            for p in &mut scaled.cpu.rate_curve {
                p.mflops *= factor;
            }
            scaled.name = format!("{} (rate x{factor:.2})", s.name);
            scaled
        });
        MachineSpec { id: self.id.clone(), analytic: self.analytic.with_rate_scaled(factor), sim }
    }

    /// Emit the JSON spec-file form (see EXPERIMENTS.md for the schema).
    pub fn to_json(&self) -> String {
        json::emit(self)
    }

    /// Parse a JSON spec document. Unknown fields, missing fields and
    /// malformed values are errors that name the offending path.
    pub fn from_json(text: &str) -> Result<Self, String> {
        json::parse(text)
    }
}

/// Resolve a built-in machine by registry name.
pub fn builtin(name: &str) -> Option<MachineSpec> {
    let (analytic, sim) = match name {
        "pentium3-myrinet" => (quoted::pentium3_myrinet(), sim::pentium3_myrinet_sim()),
        "opteron-gige" => (quoted::opteron_gige(), sim::opteron_gige_sim()),
        "altix-numalink" => (quoted::altix_numalink(), sim::altix_numalink_sim()),
        "opteron-myrinet" => (quoted::opteron_myrinet_hypothetical(), sim::opteron_myrinet_sim()),
        _ => return None,
    };
    Some(MachineSpec { id: name.to_string(), analytic, sim: Some(sim) })
}

/// All built-in machines, in [`BUILTIN_NAMES`] order.
pub fn all_builtin() -> Vec<MachineSpec> {
    BUILTIN_NAMES.iter().map(|n| builtin(n).expect("builtin names resolve")).collect()
}

/// Load a machine from a JSON spec file.
pub fn load_file(path: &str) -> Result<MachineSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec file {path}: {e}"))?;
    MachineSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Resolve a machine by built-in name or spec-file path: registry names
/// win; anything else is treated as a path if it exists on disk.
pub fn resolve(name_or_path: &str) -> Result<MachineSpec, String> {
    if let Some(m) = builtin(name_or_path) {
        return Ok(m);
    }
    if std::path::Path::new(name_or_path).exists() {
        return load_file(name_or_path);
    }
    Err(format!(
        "unknown machine '{name_or_path}': not a registry name ({}) and no such spec file",
        BUILTIN_NAMES.join(", ")
    ))
}

/// Resolve a workload spec-file path (the problem-side counterpart of
/// [`resolve`]; bare template identifiers are handled by
/// [`pace_core::WorkloadKind::parse`] in the CLI, which owns the default
/// parameter ladders).
pub fn resolve_workload(path: &str) -> Result<pace_core::Workload, String> {
    if std::path::Path::new(path).exists() {
        return load_workload_file(path);
    }
    Err(format!(
        "unknown workload '{path}' (expected one of: wavefront, stencil, allreduce, or a workload spec-file path)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_in_table_order() {
        let all = all_builtin();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].analytic.name, "Intel Pentium 3 1.4GHz / Myrinet 2000");
        assert_eq!(all[1].analytic.name, "AMD Opteron 2GHz / Gigabit Ethernet");
        assert_eq!(all[2].analytic.name, "SGI Altix Itanium2 1.6GHz / NUMAlink 4");
        assert_eq!(all[3].analytic.name, "AMD Opteron 2GHz / Myrinet 2000 (hypothetical)");
        for m in &all {
            assert!(m.sim.is_some(), "{}: every builtin carries a sim half", m.id);
        }
    }

    #[test]
    fn resolve_rejects_unknown_names_usefully() {
        let err = resolve("no-such-machine").unwrap_err();
        assert!(err.contains("no-such-machine"), "{err}");
        assert!(err.contains("opteron-gige"), "should list valid names: {err}");
    }

    #[test]
    fn rate_scaling_matches_analytic_convention() {
        let m = builtin("opteron-myrinet").unwrap().with_rate_scaled(1.25);
        assert_eq!(m.analytic, quoted::opteron_myrinet_hypothetical().with_rate_scaled(1.25));
        let sim = m.sim.unwrap();
        assert!(sim.name.ends_with("(rate x1.25)"), "{}", sim.name);
        let base = sim::opteron_myrinet_sim();
        for (scaled, orig) in sim.cpu.rate_curve.iter().zip(&base.cpu.rate_curve) {
            assert!((scaled.mflops - orig.mflops * 1.25).abs() < 1e-12);
            assert_eq!(scaled.bytes, orig.bytes);
        }
    }

    #[test]
    fn builtin_seeds_fit_json_numbers() {
        for m in all_builtin() {
            let seed = m.sim.unwrap().seed;
            assert!(seed < (1 << 53), "seed 0x{seed:x} must be exactly representable as f64");
        }
    }

    #[test]
    fn json_round_trips_every_builtin() {
        for m in all_builtin() {
            let doc = m.to_json();
            let back = MachineSpec::from_json(&doc).unwrap_or_else(|e| panic!("{}: {e}", m.id));
            assert_eq!(back, m, "{} must round-trip exactly", m.id);
        }
    }

    #[test]
    fn analytic_only_spec_round_trips() {
        let m = MachineSpec::from_analytic("flat", quoted::opteron_myrinet_hypothetical());
        let back = MachineSpec::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert!(back.sim_or_err().is_err());
    }
}
