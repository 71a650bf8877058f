//! The paper's evaluation as one checked report (`BENCH_paper.json`).
//!
//! [`report`] regenerates Figs. 2 and 6–11, Table IV, Appendix C and the
//! ablation as `Json` tables, one report member per figure and one row
//! object per figure row, then appends the [`claims`] evaluated over
//! those tables. Values are rounded to the precision the figure reports
//! them at, so the committed report is diffable byte for byte.
//!
//! Figs. 7, 9, 10 and 11 are [`sim`] grids of full-system scenarios run
//! once each on the sharded engine; the rest are [`analytic`] or run
//! below `System`. Every run is seeded by a constant, so the report is a
//! pure function of the source at any worker count.

pub mod analytic;
pub mod claims;
pub mod sim;

use mithril_obs::json::Json;
use mithril_obs::{json_obj, FORMAT_VERSION};
use mithril_runner::engine::PoolConfig;
use mithril_sim::SystemConfig;

/// `x` rounded to `decimals` places, exactly as `{:.decimals$}` prints it.
fn fixed(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}")
        .parse()
        .expect("a formatted float parses")
}

/// `x` rounded to `digits` fractional digits of its scientific form,
/// exactly as `{:.digits$e}` prints it.
fn sci(x: f64, digits: usize) -> f64 {
    format!("{x:.digits$e}")
        .parse()
        .expect("a formatted float parses")
}

/// Regenerates every figure and table, then evaluates the claims.
pub fn report(pool: PoolConfig) -> Json {
    let figures = sim::figures();
    let runs = sim::run(&figures, pool);
    let simulated = |name: &str| {
        let figure = figures.iter().find(|f| f.name == name).unwrap();
        sim::table(figure, &runs)
    };
    let (fig8, fig8_window) = analytic::fig8();
    let doc = json_obj! {
        "format_version": FORMAT_VERSION,
        "setup": json_obj! {
            "cores": SystemConfig::table_iii().cores,
            "insts_per_core": sim::INSTS_PER_CORE,
            "seed": sim::SEED,
            "simulations": runs.count(),
        },
        "fig2": analytic::fig2(pool),
        "fig6": analytic::fig6(),
        "mithril_paper": analytic::mithril_paper(),
        "fig7": simulated("fig7"),
        "fig8": fig8,
        "fig8_window": fig8_window,
        "fig9": simulated("fig9"),
        "fig10": simulated("fig10"),
        "fig10e": analytic::fig10e(),
        "fig11": simulated("fig11"),
        "table4": analytic::table4(),
        "appendix_c": analytic::appendix_c(),
        "appendix_c_curve": analytic::appendix_c_curve(),
        "ablation": analytic::ablation(pool),
    };
    // Claims read the tables as rendered, exactly as a reader of the
    // committed file sees them.
    let mut doc = Json::parse(&doc.render()).expect("the writer's output parses");
    let claims = claims::evaluate(&doc);
    doc.push("claims", claims);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
        let text = std::fs::read_to_string(path).expect("BENCH_paper.json is committed");
        Json::parse(&text).unwrap()
    }

    fn claim<'a>(claims: &'a Json, text: &str) -> &'a Json {
        let all = claims.as_arr().unwrap();
        all.iter()
            .find(|c| c.get("claim").and_then(Json::as_str) == Some(text))
            .unwrap_or_else(|| panic!("no claim {text:?}"))
    }

    #[test]
    fn rounding_matches_the_printed_precision() {
        assert_eq!(fixed(99.615_000_1, 2), 99.62);
        assert_eq!(fixed(-0.065_4, 3), -0.065);
        assert_eq!(sci(9.946_4e-16, 3), 9.946e-16);
        assert_eq!(Json::from(fixed(12.4, 1)).render(), "12.4");
    }

    #[test]
    fn committed_claims_are_the_claims_of_the_committed_tables() {
        let doc = committed();
        assert_eq!(claims::evaluate(&doc), *doc.get("claims").unwrap());
    }

    fn member<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(members) = v else {
            panic!("not an object")
        };
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn a_perturbed_table_flips_its_claim() {
        let text = "Mithril+ stays at ~100%";
        let mut doc = committed();
        let before = claims::evaluate(&doc);
        assert_eq!(claim(&before, text).get("holds"), Some(&Json::Bool(true)));

        // Mithril+ normal-workload IPC at (1.5K, 32) drops to 50%.
        let Json::Arr(fig9) = member(&mut doc, "fig9") else {
            panic!("fig9 is a table")
        };
        let point = fig9.last_mut().unwrap();
        assert_eq!(point.get("flip_th"), Some(&Json::Int(1_500)));
        *member(point, "mithril_plus_norm_ipc_pct") = Json::Num(50.0);

        let after = claims::evaluate(&doc);
        let flipped = claim(&after, text);
        assert_eq!(flipped.get("holds"), Some(&Json::Bool(false)));
        assert_eq!(flipped.get("observed"), Some(&Json::Num(50.0)));
        let moved = before.as_arr().unwrap().iter().zip(after.as_arr().unwrap());
        assert_eq!(
            moved.filter(|(b, a)| b != a).count(),
            1,
            "one claim reads it"
        );
    }
}
