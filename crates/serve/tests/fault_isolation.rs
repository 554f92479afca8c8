//! Admission-time fault isolation: a request whose matrix is non-finite
//! once cast to the device's `f32` (NaN, ±inf, or a finite `f64` beyond
//! `f32::MAX`) is refused at the door, so it can never fail the batch it
//! would have shared with healthy requests.

use heterosvd::Accelerator;
use heterosvd_serve::{ClientId, ServeConfig, ServeError, SvdService};
use std::time::Duration;
use svd_kernels::Matrix;

fn well_conditioned(rows: usize, cols: usize, salt: u64) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r as u64 * 29 + c as u64 * 11 + salt * 7) % 13) as f64 / 3.0
            + if r == c { 5.0 } else { 0.0 }
    })
}

fn with_entry(mut m: Matrix<f64>, value: f64) -> Matrix<f64> {
    m[(3, 2)] = value;
    m
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// One NaN matrix and one holding `1e39` (finite in `f64`, +inf in
/// `f32`) among six healthy same-shape requests: both bad ones are
/// refused with `InvalidRequest` and counted, and the six healthy ones
/// complete bit-identical to solo accelerator runs.
#[test]
fn non_finite_requests_are_refused_and_batch_mates_complete_exactly() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 8,
        // Long linger so the healthy requests coalesce into real batches.
        max_linger: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let service = SvdService::start(config.clone()).unwrap();
    let shape = (16, 8);

    let mut healthy = Vec::new();
    let mut refused = Vec::new();
    for slot in 0..8u64 {
        let matrix = match slot {
            2 => with_entry(well_conditioned(shape.0, shape.1, slot), f64::NAN),
            5 => with_entry(well_conditioned(shape.0, shape.1, slot), 1e39),
            _ => {
                let m = well_conditioned(shape.0, shape.1, slot);
                healthy.push((m.clone(), service.try_submit(m).unwrap()));
                continue;
            }
        };
        refused.push(service.try_submit(matrix).unwrap_err());
    }
    assert_eq!(refused.len(), 2);
    for err in &refused {
        assert!(matches!(err, ServeError::InvalidRequest(_)), "{err}");
    }

    let solo = Accelerator::new(config.accelerator_config(shape).unwrap()).unwrap();
    let mut saw_real_batch = false;
    for (matrix, handle) in healthy {
        let response = handle.wait().expect("healthy request must complete");
        saw_real_batch |= response.latency.batch_size > 1;
        let expected = solo.run(&matrix).unwrap();
        assert_eq!(
            bits(&response.output.result.sigma),
            bits(&expected.result.sigma),
            "sigma must match the solo run bit for bit"
        );
        assert_eq!(
            bits(response.output.result.u.as_slice()),
            bits(expected.result.u.as_slice()),
            "U must match the solo run bit for bit"
        );
        assert_eq!(response.output.result.sweeps, expected.result.sweeps);
    }
    assert!(saw_real_batch, "healthy requests never shared a batch");

    let snapshot = service.metrics();
    assert_eq!(snapshot.rejected_invalid, 2);
    assert_eq!(snapshot.completed_ok, 6);
    assert_eq!(snapshot.failed, 0);
    service.shutdown();
}

/// The update path applies the same admission check, for a cold client
/// and for one with cached factors alike.
#[test]
fn non_finite_updates_are_refused_at_admission() {
    let service = SvdService::start(ServeConfig {
        workers: 1,
        incremental: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let client = ClientId(7);
    let base = well_conditioned(16, 8, 1);

    for bad in [f64::NAN, f64::INFINITY, 1e39] {
        let err = service
            .try_submit_update(client, with_entry(base.clone(), bad))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)), "{err}");
    }
    // Warm the client's cache, then retry against the cached entry.
    service
        .try_submit_update(client, base.clone())
        .unwrap()
        .wait()
        .expect("healthy update must complete");
    let err = service
        .try_submit_update(client, with_entry(base, f64::NAN))
        .unwrap_err();
    assert!(matches!(err, ServeError::InvalidRequest(_)), "{err}");

    assert_eq!(service.metrics().rejected_invalid, 4);
    service.shutdown();
}
