//! The parallel ≡ serial check the cross-validation suites share.

use clusterwise_spgemm::engine::{Plan, PreparedMatrix};
use clusterwise_spgemm::prelude::{ClusterConfig, CsrMatrix};

/// Pool widths the parallel side runs at: at least two workers, so it is
/// cut into chunks even where the process-wide pool has one thread
/// (`RAYON_NUM_THREADS=1`).
const WIDTHS: [usize; 2] = [2, 8];

/// Asserts that `plan` with `parallel: true`, prepared and executed in a
/// pool of each width in [`WIDTHS`], is bit-identical to the serial oracle
/// `Plan { parallel: false, ..plan }`, and returns the oracle: `shape(A · A)`
/// under `plan`. `mask` must be `Some` exactly when the shape is masked.
pub fn assert_parallel_matches_serial(
    what: &str,
    a: &CsrMatrix,
    plan: Plan,
    mask: Option<&CsrMatrix>,
) -> CsrMatrix {
    let product = |parallel| {
        PreparedMatrix::prepare(a, Plan { parallel, ..plan }, 7, &ClusterConfig::default())
            .multiply_shaped(a, mask)
    };
    let oracle = product(false);
    for width in WIDTHS {
        let got = rayon::with_pool_width(width, || product(true));
        assert!(
            got.bits_eq(&oracle),
            "{what}: the parallel run at width {width} is not bit-identical to the serial \
             oracle under {}",
            plan.describe()
        );
    }
    oracle
}
