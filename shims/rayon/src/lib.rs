//! Vendored, offline subset of `rayon`.
//!
//! Implements `par_iter().map(..).collect()` and
//! `par_iter().flat_map_iter(..).collect()` — the two shapes the
//! lattice builder uses — with real data parallelism: the input slice
//! is split into one contiguous chunk per available core and each chunk
//! is processed on a scoped `std::thread`. Output order matches input
//! order, as with real rayon's indexed parallel iterators.

/// The glob-import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// How many worker threads to fan out to.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over each element of `items`, in parallel chunks, preserving
/// order; the per-item results are concatenated.
fn chunked_map<'data, T: Sync, R: Send, F>(items: &'data [T], f: F) -> Vec<R>
where
    F: Fn(&'data T) -> R + Sync,
{
    let n = items.len();
    let k = workers().min(n.max(1));
    if k <= 1 || n < 2 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(k);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            results.push(h.join().expect("rayon shim worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// `par_iter()` entry point for slices and vectors.
pub trait IntoParallelRefIterator<'data> {
    /// The element type.
    type Item: Sync + 'data;

    /// A parallel iterator over references.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator.
pub struct ParIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Parallel map.
    pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Parallel flat-map where each item yields a serial iterator.
    pub fn flat_map_iter<I, F>(self, f: F) -> ParFlatMapIter<'data, T, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(&'data T) -> I + Sync,
    {
        ParFlatMapIter {
            items: self.items,
            f,
        }
    }
}

/// Pending parallel map; `collect` runs it.
pub struct ParMap<'data, T, F> {
    items: &'data [T],
    f: F,
}

impl<'data, T: Sync, F> ParMap<'data, T, F> {
    /// Executes the map and collects in input order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
        C: FromIterator<R>,
    {
        chunked_map(self.items, self.f).into_iter().collect()
    }
}

/// Pending parallel flat-map; `collect` runs it.
pub struct ParFlatMapIter<'data, T, F> {
    items: &'data [T],
    f: F,
}

impl<'data, T: Sync, F> ParFlatMapIter<'data, T, F> {
    /// Executes the flat-map and collects in input order.
    pub fn collect<C, I>(self) -> C
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(&'data T) -> I + Sync,
        C: FromIterator<I::Item>,
    {
        let per_item = chunked_map(self.items, |t| (self.f)(t).into_iter().collect::<Vec<_>>());
        per_item.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_iter_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let out: Vec<u32> = v.par_iter().flat_map_iter(|&x| [x, x]).collect();
        let expected: Vec<u32> = (0..1000).flat_map(|x| [x, x]).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_single() {
        let v: Vec<u32> = vec![];
        let out: Vec<u32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }
}
