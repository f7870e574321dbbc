//! The engine conformance corpus: a fixed list of composed hpclib apps
//! and hand-inlined C-series programs, each with its translation mode
//! and world shape.
//!
//! Every engine change is held to this list twice: the golden fixture
//! (`tests/engine_golden.rs` at the workspace root) pins each case's
//! result bits, instruction and cycle counters, virtual time and
//! per-rank clocks, and the fuel-boundary test
//! (`crates/exec/tests/semantics.rs`) runs each case in tiny scheduler
//! slices against one unbounded slice. Sizes are small so both run in
//! seconds in a debug build.

use crate::cprogs::{C_DIFFUSION, C_MATMUL};
use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jlang::ClassTable;
use jvm::Value;
use wootinj::{GpuConfig, JitCode, JitOptions, MpiCostModel, WjResult, WootinJ};

/// Translation modes the composed apps run in (the paper's WootinJ,
/// C++ and Template series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    WootinJ,
    Cpp,
    Template,
}

impl Series {
    pub fn name(self) -> &'static str {
        match self {
            Series::WootinJ => "wootinj",
            Series::Cpp => "cpp",
            Series::Template => "template",
        }
    }

    pub fn options(self) -> JitOptions {
        match self {
            Series::WootinJ => JitOptions::wootinj(),
            Series::Cpp => JitOptions::cpp(),
            Series::Template => JitOptions::template(),
        }
    }
}

/// What a case composes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    /// `StencilApp::compose` with the default diffusion model.
    Stencil(StencilPlatform),
    /// `MatmulApp::compose` with the optimized calculator.
    Matmul(MatmulThread, MatmulBody),
    /// A C-series class from [`crate::cprogs`], by name.
    C(&'static str),
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub app: App,
    pub series: Series,
    /// World size (1 for interp and gpu-sim).
    pub ranks: u32,
    /// Whether each rank drives the simulated device.
    pub gpu: bool,
}

/// Stencil grid edge and sweep count, and matmul edge, of every case.
const GRID: i32 = 6;
const SWEEPS: i32 = 2;
const MATMUL_N: i32 = 8;

impl Case {
    fn new(app: App, series: Series, ranks: u32, gpu: bool) -> Case {
        let what = match app {
            App::Stencil(p) => format!("stencil-{p:?}"),
            App::Matmul(t, b) => format!("matmul-{t:?}-{b:?}"),
            App::C(class) => class.to_string(),
        };
        Case {
            name: format!("{what}/{}/r{ranks}", series.name()),
            app,
            series,
            ranks,
            gpu,
        }
    }

    /// The entry method and its arguments.
    pub fn entry(&self) -> (&'static str, Vec<Value>) {
        let stencil = || {
            let g = Value::Int(GRID);
            vec![g.clone(), g.clone(), g, Value::Int(SWEEPS)]
        };
        match self.app {
            App::Stencil(_) => ("invoke", stencil()),
            App::C(class) if class.starts_with("CDiffusion") => ("invoke", stencil()),
            App::Matmul(..) | App::C(_) => ("start", vec![Value::Int(MATMUL_N)]),
        }
    }

    /// Whether this case composes from the matmul table.
    fn is_matmul(&self) -> bool {
        match self.app {
            App::Matmul(..) => true,
            App::C(class) => class.starts_with("CMatmul"),
            App::Stencil(_) => false,
        }
    }

    /// Build the case's application object inside `env`.
    pub fn compose(&self, env: &mut WootinJ<'_>) -> WjResult<Value> {
        match self.app {
            App::Stencil(p) => StencilApp::compose(env, p, StencilApp::default_model()),
            App::Matmul(t, b) => MatmulApp::compose(env, t, b, MatmulCalc::Optimized),
            App::C(class) if self.is_matmul() => env.new_instance(class, &[]),
            App::C(class) => env.new_instance(class, &[Value::Float(0.4), Value::Float(0.1)]),
        }
    }

    /// Compose, jit on the built-in platform for this shape, and
    /// configure the world.
    pub fn jit(&self, env: &mut WootinJ<'_>) -> WjResult<JitCode> {
        let app = self.compose(env)?;
        let (method, args) = self.entry();
        let mut code = env.jit(&app, method, &args, self.series.options())?;
        if self.ranks > 1 {
            code.set_mpi(self.ranks, MpiCostModel::default());
        }
        if self.gpu {
            code.set_gpu(GpuConfig::default());
        }
        Ok(code)
    }

    /// The class table this case composes from.
    pub fn table<'t>(&self, tables: &'t Tables) -> &'t ClassTable {
        if self.is_matmul() {
            &tables.matmul
        } else {
            &tables.stencil
        }
    }
}

/// The two class tables the corpus composes from (each library plus
/// its C-series programs).
pub struct Tables {
    pub stencil: ClassTable,
    pub matmul: ClassTable,
}

impl Tables {
    pub fn build() -> Tables {
        Tables {
            stencil: hpclib::stencil_table(&[("c_diffusion.jl", C_DIFFUSION)])
                .expect("stencil table compiles"),
            matmul: hpclib::matmul_table(&[("c_matmul.jl", C_MATMUL)])
                .expect("matmul table compiles"),
        }
    }
}

/// Every corpus case, in a fixed order.
pub fn cases() -> Vec<Case> {
    use MatmulBody::*;
    use Series::*;
    use StencilPlatform::*;
    let mut out = Vec::new();
    for series in [WootinJ, Cpp, Template] {
        out.push(Case::new(App::Stencil(Cpu), series, 1, false));
        out.push(Case::new(App::Stencil(Gpu), series, 1, true));
        out.push(Case::new(App::Stencil(CpuMpi), series, 2, false));
        out.push(Case::new(
            App::Matmul(MatmulThread::CpuLoop, Simple),
            series,
            1,
            false,
        ));
        out.push(Case::new(
            App::Matmul(MatmulThread::Mpi, Fox),
            series,
            4,
            false,
        ));
    }
    // The device bodies: C++ mode is the arity-mismatch case, which the
    // engine rejects typed (see `crates/wootinj/tests/engine_dispatch.rs`).
    for series in [WootinJ, Template] {
        for body in [GpuNaive, GpuTiled] {
            out.push(Case::new(
                App::Matmul(MatmulThread::Gpu, body),
                series,
                1,
                true,
            ));
        }
    }
    out.push(Case::new(App::C("CDiffusion"), WootinJ, 1, false));
    out.push(Case::new(App::C("CDiffusionGPU"), WootinJ, 1, true));
    out.push(Case::new(App::C("CDiffusionMPI"), WootinJ, 2, false));
    out.push(Case::new(App::C("CDiffusionGPUMPI"), WootinJ, 2, true));
    out.push(Case::new(App::C("CMatmul"), WootinJ, 1, false));
    out.push(Case::new(App::C("CMatmulFox"), WootinJ, 4, false));
    out.push(Case::new(App::C("CMatmulGPU"), WootinJ, 1, true));
    out.push(Case::new(App::C("CMatmulFoxGPU"), WootinJ, 4, true));
    out
}
