//! The request stream is a pure function of the workload and the seed.

use perfbench::config::Settings;
use perfbench::stream::{self, render_line, render_pixels, Request};

const IMAGES: usize = 200;

fn settings() -> Settings {
    Settings::load().expect("workloads.json parses")
}

/// Every byte the server would receive, plus each line's schedule.
fn wire_bytes(name: &str, seed: u64) -> Vec<u8> {
    let s = settings();
    let w = s.workload(name).expect("workload exists");
    let reqs: Vec<Request> = match w.load {
        perfbench::config::Load::Open { .. } => stream::open_loop(w, 2.0, IMAGES, seed),
        perfbench::config::Load::Closed { connections, .. } => (0..connections)
            .flat_map(|c| stream::closed_loop(w, c, IMAGES, seed).take(300))
            .collect(),
    };
    let pixels: Vec<String> = (0..IMAGES)
        .map(|i| render_pixels(&[i as f32 * 0.125, -1.5, 3.0e-7]))
        .collect();
    let mut out = Vec::new();
    for r in &reqs {
        out.extend_from_slice(format!("{} ", r.at_us).as_bytes());
        let line = render_line(
            r,
            &w.tenants[r.tenant],
            r.image % 10,
            [3, 16, 16],
            &pixels[r.image],
        );
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    for name in ["tenants_small", "elastic_kill", "saturate"] {
        let a = wire_bytes(name, 7);
        assert!(!a.is_empty());
        assert_eq!(a, wire_bytes(name, 7), "{name}: same seed, different bytes");
        assert_ne!(a, wire_bytes(name, 8), "{name}: the seed must matter");
    }
}

#[test]
fn open_loop_stream_has_the_fixed_rate_mix_and_deadline_range() {
    let s = settings();
    let w = s.workload("elastic_kill").unwrap();
    let perfbench::config::Load::Open { rate_rps } = w.load else {
        panic!("elastic_kill is open loop");
    };
    let (lo, hi) = w.deadline_ms.expect("elastic_kill sends deadlines");
    let reqs = stream::open_loop(w, 4.0, IMAGES, 3);
    assert_eq!(reqs.len(), (rate_rps * 4.0).round() as usize);
    assert!(reqs.windows(2).all(|p| p[0].at_us <= p[1].at_us));
    assert!(reqs.last().unwrap().at_us < 4_000_000);
    for r in &reqs {
        let d = r.deadline_ms.unwrap();
        assert!((lo..=hi).contains(&d), "deadline {d} outside [{lo}, {hi}]");
    }
    // Ids are unique and every image of a full permutation appears once.
    let mut ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
    ids.dedup();
    assert_eq!(ids.len(), reqs.len());
    let mut first: Vec<usize> = reqs[..IMAGES].iter().map(|r| r.image).collect();
    first.sort_unstable();
    assert_eq!(first, (0..IMAGES).collect::<Vec<_>>());

    let two = s.workload("tenants_small").unwrap();
    let reqs = stream::open_loop(two, 1.0, IMAGES, 3);
    let zeros = reqs.iter().filter(|r| r.tenant == 0).count();
    assert!(
        zeros.abs_diff(reqs.len() - zeros) <= 1,
        "tenants split evenly"
    );
}

#[test]
fn closed_loop_ids_are_unique_across_connections() {
    let s = settings();
    let w = s.workload("saturate").unwrap();
    let perfbench::config::Load::Closed { connections, .. } = w.load else {
        panic!("saturate is closed loop");
    };
    let mut ids: Vec<u64> = (0..connections)
        .flat_map(|c| stream::closed_loop(w, c, IMAGES, 1).take(500))
        .map(|r| r.id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), connections * 500);
}
