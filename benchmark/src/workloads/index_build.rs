//! `index-build` — bulk write: publish and learn.
//!
//! The timed operation is a whole deployment lifecycle at paper scale:
//! create the system, replay the 315 training queries, `publish_all`, then
//! three learning iterations (Algorithm 1). That is the write side of the
//! postings layer — the batched flush installs entries out of document
//! order, which the packed list answers by decode-splice-re-encode — and
//! it is where a deployment's construction bill is run up.
//!
//! `ops_per_s` counts one document through one pass (8,000 documents × 4
//! passes per lifecycle). After each pass a few rounds of read-only probes
//! show what search costs on the index as it stands; they are well under
//! 2 % of the time, so a read-path optimisation must not move this
//! workload's throughput, and a write-path one must not move `serve-full`.
//!
//! Every lifecycle builds the same deployment from the same world, so all
//! of them must end in the same index (checked by fingerprint).

use sprite_chord::SimConfig;
use sprite_core::{SpriteConfig, World};

use crate::deploy::{deploy, precision_ratio, PASSES};
use crate::harness::{Harness, Ledger};
use crate::layers;
use crate::workloads::probe::{probe, Probes};

/// Run the workload.
pub fn run(h: &mut Harness) {
    let plan = h.plan.clone();
    let world = h.setup(|h| {
        h.spans
            .time("core.world_build", 0, || World::build(plan.world.clone()))
            .0
    });
    let ops_per_lifecycle = (world.synthetic.corpus().len() * PASSES) as u64;

    let mut fingerprint = None;
    let mut probes = Probes::new(&h.args);
    let mut last = None;
    for lifecycle in 0..plan.windows as u64 {
        drop(last.take()); // free the previous deployment outside the window
        let traced = h.next_window_traced();
        h.begin_window();
        let open = h.spans.enter("bench.lifecycle", lifecycle);
        let mut sys = deploy(
            &mut h.spans,
            &world,
            SpriteConfig::default(),
            SimConfig::default(),
            lifecycle,
            traced,
            |spans, sys, _pass| {
                probe(
                    spans,
                    &world,
                    sys,
                    plan.probe_rounds,
                    lifecycle,
                    traced,
                    &mut probes,
                );
            },
        );
        let _ = h.spans.exit(open);
        h.probes_done(&mut probes);
        h.end_window(ops_per_lifecycle);
        h.absorb_recorder(sys.take_tracer());

        let print = sprite_audit::determinism::fingerprint_index(&sys);
        if *fingerprint.get_or_insert(print) != print {
            h.problem(format!("lifecycle {lifecycle} built a different index"));
        }
        last = Some(sys);
    }
    h.recorder.merge(&probes.recorder);
    let mut sys = last.expect("at least one lifecycle ran");
    let mut ledger = Ledger::take(
        &sys,
        h.tally,
        probes.bill.total_messages(),
        probes.bill.total_bytes(),
    );
    ledger.precision_ratio = precision_ratio(&world, &mut sys);
    h.ledger = Some(ledger);

    if h.args.trace {
        let requests = layers::kernel_requests(h, &world, &sys);
        layers::measure(h, &world, &mut sys, &requests);
    }
}
