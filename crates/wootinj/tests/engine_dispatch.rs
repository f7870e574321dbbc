//! The engine's decoded form at the facade: built once per artifact and
//! reused by every invoke (mpi-sim slices and gpu-sim CUDA threads take
//! it by reference); and calls with the wrong arity fail typed instead of
//! panicking.

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jvm::Value;
use wootinj::{GpuConfig, JitOptions, MpiCostModel, WootinJ};

#[test]
fn decoded_code_is_built_once_per_artifact() {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let args = [Value::Int(6), Value::Int(6), Value::Int(6), Value::Int(2)];
    for (platform, ranks, gpu) in [
        (StencilPlatform::Gpu, 1, true),
        (StencilPlatform::CpuMpi, 2, false),
    ] {
        let app = StencilApp::compose(&mut env, platform, StencilApp::default_model()).unwrap();
        let jit = |env: &WootinJ<'_>| {
            let mut code = env
                .jit(&app, "invoke", &args, JitOptions::wootinj())
                .unwrap();
            if gpu {
                code.set_gpu(GpuConfig::default());
            }
            if ranks > 1 {
                code.set_mpi(ranks, MpiCostModel::default());
            }
            code
        };
        let first = jit(&env);
        let mut vtimes = Vec::new();
        for _ in 0..3 {
            // A memory-cache hit shares the artifact, decoded form included.
            let code = jit(&env);
            assert!(std::ptr::eq(
                code.translated.code(),
                first.translated.code()
            ));
            vtimes.push(code.invoke(&env).unwrap().vtime_cycles);
        }
        assert!(vtimes.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn gpu_bodies_in_cpp_mode_fail_typed_on_arity_mismatch() {
    let table = hpclib::matmul_table(&[]).unwrap();
    for body in [MatmulBody::GpuNaive, MatmulBody::GpuTiled] {
        let mut env = WootinJ::new(&table).unwrap();
        let app =
            MatmulApp::compose(&mut env, MatmulThread::Gpu, body, MatmulCalc::Optimized).unwrap();
        let mut code = env
            .jit(&app, "start", &[Value::Int(8)], JitOptions::cpp())
            .unwrap();
        code.set_gpu(GpuConfig::default());
        let Err(err) = code.invoke(&env) else {
            panic!("{body:?}: an arity mismatch is an error, not a result");
        };
        let text = err.to_string();
        assert!(
            text.contains("passes") && text.contains("args, it takes") && text.contains(" at pc "),
            "{body:?}: {text}"
        );
    }
}
