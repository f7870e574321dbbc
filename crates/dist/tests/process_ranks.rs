//! Process-mode conformance for the `dist` backend: real OS rank
//! processes (the `wj-dist-worker` binary) over loopback TCP must be
//! bit-identical to the in-process `mpi-sim` backend at 2, 4, and 8
//! ranks, and a killed rank process must recover through the
//! collective-boundary checkpoint chain with a typed outcome — no
//! panic, no hang (every wire wait is deadline-bounded).

mod common;

use common::ring_step_reduce;
use dist::{warm_program_path, DistWorld, Launch, WARM_DIGEST_SEED};
use exec::Code;
use mpi_sim::{SimError, World};
use std::path::PathBuf;

/// A fresh scratch directory under the system temp root, removed on
/// drop so repeated test runs never see stale warm images.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wj-dist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn worker_launch() -> Launch {
    Launch::Processes {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_wj-dist-worker")),
        args: vec![],
    }
}

/// Full-run equality: results, clocks, cycle accounting, and output —
/// everything the scheduler and the pool produce.
fn assert_runs_identical(a: &mpi_sim::WorldRun, b: &mpi_sim::WorldRun, what: &str) {
    assert_eq!(a.vtime, b.vtime, "{what}: vtime diverged");
    assert_eq!(
        a.total_cycles, b.total_cycles,
        "{what}: total cycles diverged"
    );
    assert_eq!(a.ranks.len(), b.ranks.len(), "{what}: world size diverged");
    for (r, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
        assert_eq!(
            format!("{:?}", x.result),
            format!("{:?}", y.result),
            "{what}: rank {r} result diverged"
        );
        assert_eq!(x.vclock, y.vclock, "{what}: rank {r} vclock diverged");
        assert_eq!(
            x.compute_cycles, y.compute_cycles,
            "{what}: rank {r} compute cycles diverged"
        );
        assert_eq!(
            x.comm_cycles, y.comm_cycles,
            "{what}: rank {r} comm cycles diverged"
        );
        assert_eq!(x.output, y.output, "{what}: rank {r} output diverged");
    }
}

#[test]
fn process_ranks_are_bit_identical_to_mpi_sim_at_2_4_and_8() {
    let (p, entry) = ring_step_reduce(8, 6);
    let code = Code::new(&p);
    for size in [2u32, 4, 8] {
        let local = World::new(&p, &code, size)
            .run(entry, |_, _| Ok(vec![]))
            .unwrap();
        let remote = DistWorld::new(&p, &code, size)
            .with_launch(worker_launch())
            .run(entry, |_, _| Ok(vec![]))
            .unwrap();
        assert_runs_identical(&local, &remote, &format!("size {size}"));
    }
}

#[test]
fn thread_workers_speak_the_same_wire_protocol() {
    // Launch::Threads runs the identical framed protocol over real
    // loopback sockets — same INIT program bytes, same restores.
    let (p, entry) = ring_step_reduce(4, 3);
    let code = Code::new(&p);
    let local = World::new(&p, &code, 4)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap();
    let remote = DistWorld::new(&p, &code, 4)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap();
    assert_runs_identical(&local, &remote, "threads");
}

#[test]
fn warm_dir_workers_are_bit_identical_and_persist_the_program_once() {
    let scratch = ScratchDir::new("warm");
    let (p, entry) = ring_step_reduce(8, 4);
    let code = Code::new(&p);
    let local = World::new(&p, &code, 4)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap();
    let world = DistWorld::new(&p, &code, 4)
        .with_launch(worker_launch())
        .with_warm_dir(&scratch.0);
    let first = world.run(entry, |_, _| Ok(vec![])).unwrap();
    assert_runs_identical(&local, &first, "warm first boot");

    // Exactly one content-addressed image on disk, digest-verifiable.
    let images: Vec<_> = std::fs::read_dir(&scratch.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wprog"))
        .collect();
    assert_eq!(images.len(), 1, "one warm image expected: {images:?}");
    let bytes = std::fs::read(&images[0]).unwrap();
    let digest = nir::digest64(&bytes, WARM_DIGEST_SEED);
    assert_eq!(
        images[0],
        warm_program_path(&scratch.0, digest),
        "warm image path is addressed by its own digest"
    );

    // A second world over the same directory boots warm — no re-publish
    // (mtime untouched) and still bit-identical results.
    let stamp = std::fs::metadata(&images[0]).unwrap().modified().unwrap();
    let second = DistWorld::new(&p, &code, 4)
        .with_launch(worker_launch())
        .with_warm_dir(&scratch.0)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap();
    assert_runs_identical(&local, &second, "warm restart");
    assert_eq!(
        std::fs::metadata(&images[0]).unwrap().modified().unwrap(),
        stamp,
        "warm restart must reuse the published image, not rewrite it"
    );
}

#[test]
fn a_corrupt_warm_image_falls_back_to_inline_init() {
    let scratch = ScratchDir::new("warm-corrupt");
    let (p, entry) = ring_step_reduce(6, 3);
    let code = Code::new(&p);
    let local = World::new(&p, &code, 4)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap();

    // Publish the warm image with a clean probe run, then overwrite it
    // with garbage at the exact path the coordinator will advertise:
    // workers digest-verify, answer a typed Err, and the coordinator
    // must re-Init inline — the run still completes bit-identically.
    let probe = DistWorld::new(&p, &code, 4).with_warm_dir(&scratch.0);
    let good = probe.run(entry, |_, _| Ok(vec![])).unwrap();
    assert_runs_identical(&local, &good, "probe run");
    let images: Vec<_> = std::fs::read_dir(&scratch.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wprog"))
        .collect();
    assert_eq!(images.len(), 1);
    std::fs::write(&images[0], b"not a program image").unwrap();

    let run = DistWorld::new(&p, &code, 4)
        .with_launch(worker_launch())
        .with_warm_dir(&scratch.0)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap();
    assert_runs_identical(&local, &run, "corrupt warm image fallback");
}

#[test]
fn connect_retry_is_bounded_seeded_and_survives_a_late_listener() {
    use dist::worker::{connect_with_retry, retry_backoff_ms, MAX_CONNECT_ATTEMPTS};
    use std::net::TcpListener;

    // The schedule is a pure function of (seed, attempt): deterministic,
    // exponential with a cap, jitter strictly below one extra base.
    for attempt in 1..=MAX_CONNECT_ATTEMPTS {
        let base = 2u64 << (attempt - 1).min(6);
        let a = retry_backoff_ms(0xFEED, attempt);
        let b = retry_backoff_ms(0xFEED, attempt);
        assert_eq!(a, b, "backoff must be deterministic");
        assert!((base..2 * base).contains(&a), "attempt {attempt}: {a}ms");
    }
    assert_ne!(
        retry_backoff_ms(1, 3),
        retry_backoff_ms(2, 3),
        "different seeds must decorrelate the jitter"
    );

    // A dead port fails typed after a bounded number of re-dials.
    let dead = {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap().port()
        // listener dropped: the port refuses connections
    };
    let (dial, retries) = connect_with_retry(dead, 7);
    assert!(dial.is_err(), "a dead port must surface the connect error");
    assert_eq!(retries, u64::from(MAX_CONNECT_ATTEMPTS) - 1);

    // A listener that appears while redialing is eventually reached.
    let port = {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap().port()
    };
    let binder = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        let l = TcpListener::bind(("127.0.0.1", port)).unwrap();
        l.accept().ok();
    });
    let (dial, retries) = connect_with_retry(port, 7);
    binder.join().unwrap();
    assert!(dial.is_ok(), "late listener must be reachable via retries");
    assert!(
        retries > 0,
        "the late bind must have cost at least one re-dial"
    );
}

#[test]
fn a_killed_rank_process_fails_typed_without_checkpoints() {
    let (p, entry) = ring_step_reduce(8, 6);
    let code = Code::new(&p);
    let err = DistWorld::new(&p, &code, 4)
        .with_launch(worker_launch())
        .kill_rank_after(2, 5)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap_err();
    match err {
        SimError::Crash { rank, .. } => assert_eq!(rank, 2, "the killed rank is attributed"),
        other => panic!("expected a typed Crash for the killed worker, got: {other}"),
    }
}

#[test]
fn a_killed_rank_process_recovers_through_the_checkpoint_chain() {
    let (p, entry) = ring_step_reduce(8, 6);
    let code = Code::new(&p);
    let clean = World::new(&p, &code, 4)
        .run(entry, |_, _| Ok(vec![]))
        .unwrap();

    let policy = mpi_sim::CheckpointPolicy::every(1);
    let run = DistWorld::new(&p, &code, 4)
        .with_launch(worker_launch())
        .kill_rank_after(1, 6)
        .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 4)
        .unwrap();
    assert!(
        run.restart.restarts >= 1,
        "the kill must actually force a restart (restarts = {})",
        run.restart.restarts
    );
    assert!(run.restart.checkpoints_taken >= 1, "no checkpoints taken");
    // Recovery lands on the fault-free answer, bit for bit.
    for (r, (x, y)) in clean.ranks.iter().zip(&run.ranks).enumerate() {
        assert_eq!(
            format!("{:?}", x.result),
            format!("{:?}", y.result),
            "rank {r} result diverged after recovery"
        );
    }
}
