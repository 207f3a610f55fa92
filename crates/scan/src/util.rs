//! Shared tiling helpers for the scan kernels.

use ascendc::{SimError, SimResult};

/// Rejects a matmul tile dimension `s` that is not a positive multiple
/// of 16 (the cube's fractal size), naming `kernel` in the error.
pub(crate) fn check_tile_dim(kernel: &str, s: usize) -> SimResult<()> {
    if s == 0 || !s.is_multiple_of(16) {
        return Err(SimError::InvalidArgument(format!(
            "{kernel}: s must be a positive multiple of 16, got {s}"
        )));
    }
    Ok(())
}

/// Splits `[0, n)` into spans of at most `tile` elements:
/// `(offset, valid)` pairs in order.
pub(crate) fn tile_spans(n: usize, tile: usize) -> Vec<(usize, usize)> {
    assert!(tile > 0, "tile size must be positive");
    let mut spans = Vec::with_capacity(n.div_ceil(tile));
    let mut off = 0;
    while off < n {
        let valid = tile.min(n - off);
        spans.push((off, valid));
        off += valid;
    }
    spans
}

/// Splits `count` items across `parts` contiguous chunks as evenly as
/// possible: returns `(start, len)` per chunk (some may be empty).
pub(crate) fn partition(count: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0);
    let per = count.div_ceil(parts);
    (0..parts)
        .map(|p| {
            let start = (p * per).min(count);
            let end = ((p + 1) * per).min(count);
            (start, end - start)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_exactly() {
        assert_eq!(tile_spans(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(tile_spans(8, 4), vec![(0, 4), (4, 4)]);
        assert_eq!(tile_spans(3, 4), vec![(0, 3)]);
        assert!(tile_spans(0, 4).is_empty());
    }

    #[test]
    fn partition_is_balanced_and_total() {
        let p = partition(10, 3);
        assert_eq!(p, vec![(0, 4), (4, 4), (8, 2)]);
        let p = partition(2, 4);
        assert_eq!(p, vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        let total: usize = partition(1000, 7).iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 1000);
    }
}
