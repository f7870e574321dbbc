//! The benchmark's own jlang programs and their pure-Rust references.

use exec::Val;

/// Relative tolerance for f32 checksums: multi-rank reductions may sum
/// partial results in another order than the sequential reference.
pub const F32_REL_TOL: f32 = 1e-4;

pub fn close_f32(got: f32, want: f32) -> bool {
    got == want || (got - want).abs() <= F32_REL_TOL * want.abs().max(1.0)
}

/// Check an `f32` result against its reference.
pub fn check_f32(got: Option<Val>, want: f32) -> Result<(), String> {
    match got {
        Some(Val::F32(v)) if close_f32(v, want) => Ok(()),
        other => Err(format!("result {other:?}, reference {want}")),
    }
}

/// Check an `i32` result against its reference.
pub fn check_i32(got: Option<Val>, want: i32) -> Result<(), String> {
    match got {
        Some(Val::I32(v)) if v == want => Ok(()),
        other => Err(format!("result {other:?}, reference {want}")),
    }
}

/// Ring exchange with a global reduction per step: every step each rank
/// sends its buffer to the next rank, rescales what it receives, and
/// all-reduces the first element. Short compute slices between yields.
pub const RING: &str = r#"
@WootinJ final class Ring {
  Ring() { }
  float run(int n, int steps, float scale) {
    int rank = MPI.rank();
    int size = MPI.size();
    float[] sbuf = new float[n];
    float[] rbuf = new float[n];
    for (int i = 0; i < n; i++) { sbuf[i] = rank * n + i; }
    int dest = (rank + 1) % size;
    int src = (rank + size - 1) % size;
    float acc = 0f;
    for (int s = 0; s < steps; s++) {
      MPI.sendrecvF(sbuf, 0, n, dest, rbuf, 0, src, 7);
      for (int i = 0; i < n; i++) { sbuf[i] = rbuf[i] * scale + i; }
      acc += MPI.allreduceSumF(sbuf[0] + sbuf[n - 1]);
    }
    return acc;
  }
}
"#;

/// Collectives each rank of [`RING`] enters per run.
pub fn ring_collectives(steps: i32) -> u64 {
    2 * steps as u64
}

/// Sequential reference of [`RING`] on `size` ranks: every rank's result.
pub fn ring_reference(size: usize, n: usize, steps: usize, scale: f32) -> Vec<f32> {
    let mut bufs: Vec<Vec<f32>> = (0..size)
        .map(|r| (0..n).map(|i| (r * n + i) as f32).collect())
        .collect();
    let mut acc = vec![0f32; size];
    for _ in 0..steps {
        let recv: Vec<Vec<f32>> = (0..size)
            .map(|r| bufs[(r + size - 1) % size].clone())
            .collect();
        for r in 0..size {
            for i in 0..n {
                bufs[r][i] = recv[r][i] * scale + i as f32;
            }
        }
        let total: f32 = bufs.iter().map(|b| b[0] + b[n - 1]).sum();
        for a in acc.iter_mut() {
            *a += total;
        }
    }
    acc
}

/// A small single-file service program: `x * m + a`.
pub fn svc_small(m: i32, a: i32) -> String {
    format!("@WootinJ final class Svc {{ Svc() {{ }} int run(int x) {{ return x * {m} + {a}; }} }}")
}

pub fn svc_small_reference(m: i32, a: i32, x: i32) -> i32 {
    x.wrapping_mul(m).wrapping_add(a)
}

/// Loop trip count of [`svc_medium`].
pub const MEDIUM_ITERS: i32 = 400;

/// A medium single-file service program: helper methods and a loop.
pub fn svc_medium(m: i32) -> String {
    format!(
        "@WootinJ final class Svc {{
  Svc() {{ }}
  int mix(int v, int k) {{ return (v * 31 + k) % 1009; }}
  int fold(int acc, int d) {{ return (acc * 7 + d) % 65521; }}
  int step(int acc, int i, int x) {{ return fold(acc, mix(i + x, {m})); }}
  int run(int x) {{
    int acc = 1;
    for (int i = 0; i < {MEDIUM_ITERS}; i++) {{ acc = step(acc, i, x); }}
    return acc;
  }}
}}"
    )
}

pub fn svc_medium_reference(m: i32, x: i32) -> i32 {
    let mut acc = 1i32;
    for i in 0..MEDIUM_ITERS {
        let mix = ((i + x) * 31 + m) % 1009;
        acc = (acc * 7 + mix) % 65521;
    }
    acc
}

/// Helper methods and loop trip count of [`svc_large`].
pub const LARGE_HELPERS: i32 = 36;
pub const LARGE_ITERS: i32 = 20;

/// A larger single-file service program: a chain of helper methods, so a
/// cold translation costs several times a warm request.
pub fn svc_large(m: i32) -> String {
    let helpers: String = (0..LARGE_HELPERS)
        .map(|i| {
            format!(
                "  int h{i}(int v) {{ return (v * {} + {m}) % 10007; }}\n",
                3 + i
            )
        })
        .collect();
    let chain = (0..LARGE_HELPERS).fold("acc + i + x".to_string(), |inner, i| {
        format!("h{i}({inner})")
    });
    format!(
        "@WootinJ final class Svc {{\n  Svc() {{ }}\n{helpers}  int run(int x) {{\n    int acc = 0;\n\
         \x20   for (int i = 0; i < {LARGE_ITERS}; i++) {{ acc = {chain}; }}\n    return acc;\n  }}\n}}\n"
    )
}

pub fn svc_large_reference(m: i32, x: i32) -> i32 {
    let mut acc = 0i32;
    for i in 0..LARGE_ITERS {
        let mut v = acc + i + x;
        for h in 0..LARGE_HELPERS {
            v = (v * (3 + h) + m) % 10007;
        }
        acc = v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_reference_matches_a_hand_computed_step() {
        // 2 ranks, n = 2, one step, scale 0.5: rank 0 receives [2, 3]
        // -> [1, 2.5]; rank 1 receives [0, 1] -> [0, 1.5].
        // allreduce(b[0] + b[n-1]) = 3.5 + 1.5.
        assert_eq!(ring_reference(2, 2, 1, 0.5), vec![5.0, 5.0]);
    }
}
