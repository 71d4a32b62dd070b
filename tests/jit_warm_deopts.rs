//! Warm JIT runs of the four Fig. 20 programs stay in native code.
//!
//! Each program is compiled privately (the global block cache and its
//! process-wide deopt counter are shared with tests running in
//! parallel), run once to size the output buffer, reset the way a
//! serving loop resets a machine, and run again. The second run must
//! not deoptimize at all: `.`, `type` and `execute` have native
//! templates, and every guard left is one these programs never trip.

use stackcache_jit::{run_compiled, JitProgram};
use stackcache_vm::Checks;
use stackcache_workloads::{all_workloads, Scale};

#[test]
fn warm_fig20_runs_never_deoptimize() {
    if !stackcache_jit::available() {
        return; // no native backend on this host: nothing runs natively
    }
    for w in all_workloads(Scale::Full) {
        let program = &w.image.program;
        let proto = w.image.machine();
        for checks in [Checks::Full, Checks::NoUnderflow] {
            let jp = JitProgram::compile(program, checks).expect("native backend");
            let mut m = proto.clone();
            run_compiled(&jp, program, &mut m, w.fuel(), checks).expect("first run");
            let first = jp.deopts();
            let out = m.output().to_vec();
            m.reset_from(&proto);
            run_compiled(&jp, program, &mut m, w.fuel(), checks).expect("warm run");
            assert_eq!(m.output(), out, "{} output changed between runs", w.name);
            assert_eq!(
                jp.deopts() - first,
                0,
                "{} at {checks:?}: warm run deoptimized; sites {:?}",
                w.name,
                jp.deopt_sites()
            );
        }
    }
}
