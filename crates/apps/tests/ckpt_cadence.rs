//! The to-file checkpoint cadence.
//!
//! With no explicit cadence, a to-file checkpointer spaces its images by
//! their cost: consecutive images lie at least
//! `max(DEFAULT_CHECKPOINT_EVERY, previous image bytes)` demand references
//! apart. With an explicit cadence (`with_every`), a boundary fires every
//! `n` references, whatever the images weigh. Either way the checkpointed
//! run's output equals the plain run's, and its last image resumes to the
//! same full `RunStats`.

use memfwd_apps::{
    run_ck, run_ok, App, AppOutput, Checkpointer, CkOutcome, RunConfig, Variant,
    DEFAULT_CHECKPOINT_EVERY,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memfwd-cadence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// `(demand refs at capture, image bytes)` of a snapshot image.
fn image_point(image: &[u8], cfg: &RunConfig) -> (u64, u64) {
    let (m, _) = memfwd::restore_machine(image, cfg.sim).expect("image restores");
    let s = m.fwd_stats();
    (s.loads + s.stores, image.len() as u64)
}

/// Runs `app` under `ck` writing to `path`, and returns the output plus
/// every image the run wrote, in order. The heartbeat observes them: it
/// fires every `DEFAULT_CHECKPOINT_EVERY` refs, before the boundary's
/// image decision, and images lie at least that far apart, so each image
/// but the last is still in the file at some later heartbeat; the last is
/// in the file when the run ends.
fn run_observed(
    app: App,
    cfg: &RunConfig,
    ck: Checkpointer,
    path: &Path,
) -> (AppOutput, Vec<Vec<u8>>) {
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
    let log = seen.clone();
    let file = path.to_path_buf();
    let mut ck = ck.with_heartbeat(move || {
        if let Ok(bytes) = std::fs::read(&file) {
            let mut log = log.lock().expect("log");
            if log.last() != Some(&bytes) {
                log.push(bytes);
            }
        }
    });
    let out = match run_ck(app, cfg, &mut ck).expect("checkpointed run") {
        CkOutcome::Done(out) => out,
        CkOutcome::Stopped => unreachable!("a to-file checkpointer never stops"),
    };
    let mut images = std::mem::take(&mut *seen.lock().expect("log"));
    if let Ok(last) = std::fs::read(path) {
        if images.last() != Some(&last) {
            images.push(last);
        }
    }
    assert_eq!(
        images.len() as u64,
        ck.boundaries_seen(),
        "the observer saw every image"
    );
    (out, images)
}

/// The full-stats identity every checkpoint test rests on.
fn assert_same(a: &AppOutput, b: &AppOutput, what: &str) {
    assert_eq!(a.checksum, b.checksum, "{what}: checksum");
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "{what}: RunStats"
    );
}

/// Asserts the cost-bounded spacing over consecutive images, starting
/// from a previous image at `prev` `(refs, bytes)`.
fn assert_cost_spaced(mut prev: (u64, u64), images: &[Vec<u8>], cfg: &RunConfig) {
    for (refs, bytes) in images.iter().map(|i| image_point(i, cfg)) {
        let gap = refs - prev.0;
        assert!(
            gap >= DEFAULT_CHECKPOINT_EVERY.max(prev.1),
            "image at {refs} refs is only {gap} refs after one of {} bytes",
            prev.1
        );
        prev = (refs, bytes);
    }
}

#[test]
fn default_cadence_spaces_images_by_their_cost_and_resumes_identically() {
    // compress at bench scale writes images of about 0.4 MB over about
    // 0.9 M refs: the size rule, not the 16 Ki floor, sets the spacing.
    let app = App::Compress;
    let cfg = RunConfig::new(Variant::Original);
    let plain = run_ok(app, &cfg);

    let path = tmp_path("compress.ckpt");
    let (out, images) = run_observed(app, &cfg, Checkpointer::to_file(path.clone()), &path);
    assert_same(&out, &plain, "checkpointed run");
    assert!(
        images.len() >= 2,
        "want consecutive images, got {}",
        images.len()
    );
    assert_cost_spaced((0, 0), &images, &cfg);

    // Resuming from the last image reproduces the full stats.
    let last = images.last().expect("an image").clone();
    let mut resumed = Checkpointer::disabled().resume_from(last);
    match run_ck(app, &cfg, &mut resumed).expect("resumed run") {
        CkOutcome::Done(out) => assert_same(&out, &plain, "resumed run"),
        CkOutcome::Stopped => unreachable!("a disabled checkpointer never stops"),
    }

    // A to-file run resumed from the first image spaces its next image
    // from that image's size, so it writes exactly the images the
    // uninterrupted run wrote after it.
    let again = tmp_path("compress-resumed.ckpt");
    let ck = Checkpointer::to_file(again.clone()).resume_from(images[0].clone());
    let (out, rest) = run_observed(app, &cfg, ck, &again);
    assert_same(&out, &plain, "resumed to-file run");
    assert!(
        rest == images[1..],
        "the resumed run wrote different images"
    );
}

#[test]
fn explicit_cadence_fires_every_n_refs_whatever_the_image_size() {
    // Every image of this run outweighs its 1000-ref spacing, so only a
    // fixed cadence fires this often. The count is pinned from the
    // fixed-cadence rule; both ways of setting a cadence keep it.
    let base = RunConfig::new(Variant::Optimized).smoke();
    let plain = run_ok(App::Mst, &base);
    let mut via_sim = base;
    via_sim.sim.checkpoint_every = Some(1000);
    for (cfg, mut ck) in [
        (
            base,
            Checkpointer::to_file(tmp_path("mst-every.ckpt")).with_every(1000),
        ),
        (
            via_sim,
            Checkpointer::to_file(tmp_path("mst-sim-every.ckpt")),
        ),
    ] {
        match run_ck(App::Mst, &cfg, &mut ck).expect("checkpointed run") {
            CkOutcome::Done(out) => assert_same(&out, &plain, "checkpointed run"),
            CkOutcome::Stopped => unreachable!("a to-file checkpointer never stops"),
        }
        assert_eq!(ck.boundaries_seen(), 11);
    }
}
