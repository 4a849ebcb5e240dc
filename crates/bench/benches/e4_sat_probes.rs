//! E4 (§8): SAT problem generation and solving per cycle budget for
//! byteswap4 (the paper reports 1639/4613 at K=4 through 9203/26415 at
//! K=8; we report our encoding's sizes alongside solve times), plus the
//! search's full probe ladder with fresh per-probe solvers versus one
//! persistent solver probed under assumptions. The ladder is the one a
//! `search()` call probes.

use denali_arch::Machine;
use denali_axioms::SaturationLimits;
use denali_bench::harness::{BenchmarkId, Criterion};
use denali_core::encode::{encode, EncodeOptions, IncrementalEncoding, Rules};
use denali_core::machine_terms::enumerate;
use denali_core::matcher::match_gma;
use denali_core::search::{search, SearchParams};
use denali_lang::{lower_proc, parse_program};
use denali_sat::Solver;
use denali_trace::Tracer;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let program = parse_program(denali_bench::programs::BYTESWAP4).unwrap();
    let gma = lower_proc(&program.procs[0]).unwrap().remove(0);
    let matched = match_gma(
        &gma,
        &denali_axioms::standard_axioms(),
        &SaturationLimits::default(),
    )
    .unwrap();
    let machine = Machine::ev6();
    let cands = enumerate(&matched, &machine, &gma.inputs(), None).unwrap();
    let options = EncodeOptions::default();
    let rules = Rules::new(&matched, &cands, &machine, &options);
    // The search's probe order for byteswap4: from the lower bound up
    // to the first SAT budget, then down to the optimum.
    let ladder: Vec<u32> = search(
        &gma,
        &matched,
        &cands,
        &machine,
        &options,
        &SearchParams::default(),
    )
    .expect("byteswap4 schedules")
    .probes
    .iter()
    .map(|p| p.k)
    .collect();

    let mut group = c.benchmark_group("e4");
    for k in [4u32, 5, 6, 8] {
        group.bench_with_input(BenchmarkId::new("encode_and_solve", k), &k, |b, &k| {
            b.iter(|| {
                let enc = encode(&rules, k);
                let mut solver = enc.cnf.to_solver();
                black_box(solver.solve())
            })
        });
    }

    // The whole search ladder, both probing strategies.
    group.bench_function("probe_ladder_fresh", |b| {
        b.iter(|| {
            for &k in &ladder {
                let enc = encode(&rules, k);
                let mut solver = enc.cnf.to_solver();
                black_box(solver.solve());
            }
        })
    });
    group.bench_function("probe_ladder_incremental", |b| {
        b.iter(|| {
            let mut inc = IncrementalEncoding::new(&rules, Solver::new());
            for &k in &ladder {
                black_box(inc.probe(k, &Tracer::disabled()).satisfiable);
            }
        })
    });
    group.finish();
}

fn main() {
    bench(&mut Criterion::new());
}
