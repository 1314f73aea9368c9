//! The Pochoir array (`Pochoir_Array` in the paper, Section 2): a d-dimensional spatial
//! grid with a small circular buffer of time slices.
//!
//! A stencil of depth *k* needs `k + 1` time slices, reused modulo `k + 1` as the
//! computation proceeds — exactly the storage discipline of the paper.  The user never
//! obtains an alias into the array (copy-in / copy-out), which leaves the layout under
//! the library's control.

use crate::boundary::Boundary;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Range};
use std::ptr::NonNull;

/// Alignment (bytes) of grid storage: every time-slice base — and, thanks to padded
/// row strides, every interior row start — lands on a 64-byte boundary, one cache
/// line and the widest vector width we dispatch to (see [`crate::simd`]).
pub const GRID_ALIGN: usize = 64;

/// Elements of `T` per [`GRID_ALIGN`]-byte unit, or 1 when rows cannot be padded to
/// a whole number of elements (e.g. the 56-byte LBM cell `[f64; 7]`, whose rows stay
/// dense rather than wasting 8/7 of the slice).
fn row_pad_elems<T>() -> usize {
    let size = std::mem::size_of::<T>();
    if size > 0 && size <= GRID_ALIGN && GRID_ALIGN.is_multiple_of(size) {
        GRID_ALIGN / size
    } else {
        1
    }
}

/// A fixed-length, 64-byte-aligned heap buffer — the small aligned-alloc wrapper
/// behind [`PochoirArray`]'s storage.
///
/// Semantically a frozen `Vec<T>` (it derefs to `[T]` and clones), except the
/// allocation is guaranteed [`GRID_ALIGN`]-aligned so SIMD row kernels can rely on
/// the base address.  Only constructible for `T: Copy`, which is what lets `Drop`
/// skip per-element drop glue.
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
}

impl<T> AlignedVec<T> {
    fn layout(len: usize) -> Layout {
        let size = std::mem::size_of::<T>()
            .checked_mul(len)
            .expect("grid too large: allocation size overflow");
        let align = GRID_ALIGN.max(std::mem::align_of::<T>());
        Layout::from_size_align(size, align).expect("invalid grid layout")
    }

    fn alloc_uninit(len: usize) -> NonNull<T> {
        let layout = Self::layout(len);
        // Safety: the layout has non-zero size (checked by the caller).
        let raw = unsafe { alloc(layout) } as *mut T;
        NonNull::new(raw).unwrap_or_else(|| handle_alloc_error(layout))
    }

    fn is_dangling(len: usize) -> bool {
        len == 0 || std::mem::size_of::<T>() == 0
    }
}

impl<T: Copy> AlignedVec<T> {
    /// Allocates `len` elements, every one set to `value`.
    pub fn filled(len: usize, value: T) -> Self {
        if Self::is_dangling(len) {
            return AlignedVec {
                ptr: NonNull::dangling(),
                len,
            };
        }
        let ptr = Self::alloc_uninit(len);
        for i in 0..len {
            // Safety: i < len, within the fresh allocation; T: Copy has no drop glue.
            unsafe { ptr.as_ptr().add(i).write(value) };
        }
        AlignedVec { ptr, len }
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        if Self::is_dangling(self.len) {
            return AlignedVec {
                ptr: NonNull::dangling(),
                len: self.len,
            };
        }
        let ptr = Self::alloc_uninit(self.len);
        // Safety: both buffers hold `len` elements and cannot overlap.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), ptr.as_ptr(), self.len) };
        AlignedVec { ptr, len: self.len }
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if !Self::is_dangling(self.len) {
            // Elements are T: Copy by construction — no drop glue to run.
            // Safety: allocated with this exact layout in `alloc_uninit`.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) };
        }
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // Safety: the buffer holds `len` initialized elements for its whole lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // Safety: as above, plus `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

// Safety: AlignedVec owns its buffer exclusively, exactly like Vec<T>.
unsafe impl<T: Send> Send for AlignedVec<T> {}
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

/// Precomputed reciprocal for the division-free time wrap (see [`wrap_time`]).
#[inline]
fn time_magic(time_slices: usize) -> u64 {
    (u64::MAX / time_slices as u64).wrapping_add(1)
}

/// Wraps a time coordinate into `[0, time_slices)` without an integer division.
///
/// The circular time buffer is tiny (`depth + 1` slices) yet the seed code paid a
/// `rem_euclid` — a hardware divide plus a sign fix-up — on **every** grid access.  Here
/// the modulo is computed by Lemire's fastmod: multiply by a precomputed reciprocal and
/// take the high half, which is exact for any non-negative operand below 2³².  Negative
/// and astronomically large `t` (possible only through direct API calls, never from the
/// engines' monotone time loops) take the cold `rem_euclid` path; the range check is
/// perfectly predicted in the hot loops.
#[inline]
fn wrap_time(t: i64, time_slices: usize, magic: u64) -> usize {
    let n = time_slices as i64;
    // Bias keeps small negative t (e.g. the depth-2 stencils' t - 1 reads, which never
    // go below t0 - depth) on the fast path while leaving virtually the whole 2³²
    // window for positive t.  Wrapping add: a sum that overflows i64 can only land far
    // outside the fast-path window below, so it falls through to the exact cold path.
    let biased = t.wrapping_add(n << 8);
    if (0..1i64 << 32).contains(&biased) {
        let low = magic.wrapping_mul(biased as u64);
        ((low as u128 * time_slices as u128) >> 64) as usize
    } else {
        t.rem_euclid(n) as usize
    }
}

/// A dense, row-major, d-dimensional spatial grid with `depth + 1` time slices.
///
/// Coordinates are `i64`; the last spatial dimension is the unit-stride dimension.
/// Reads through [`PochoirArray::get`] outside the spatial domain are resolved by the
/// array's [`Boundary`]; writes must be in-domain.
pub struct PochoirArray<T, const D: usize> {
    sizes: [usize; D],
    strides: [usize; D],
    slice_len: usize,
    time_slices: usize,
    time_magic: u64,
    data: AlignedVec<T>,
    boundary: Boundary<T, D>,
}

impl<T: Copy + Default, const D: usize> PochoirArray<T, D> {
    /// Creates an array for a depth-1 stencil (two time slices), filled with `T::default()`.
    pub fn new(sizes: [usize; D]) -> Self {
        Self::with_depth(sizes, 1)
    }

    /// Creates an array with `depth + 1` time slices, filled with `T::default()`.
    pub fn with_depth(sizes: [usize; D], depth: usize) -> Self {
        Self::with_layout(sizes, depth, T::default())
    }
}

impl<T: Copy, const D: usize> PochoirArray<T, D> {
    /// Creates an array with `depth + 1` time slices, filled with `fill` — the
    /// `Default`-free constructor behind [`PochoirArray::with_depth`] and the shard
    /// layer's tile arrays (whose fill is an arbitrary element of the parent array,
    /// overwritten before any cell is read).
    pub(crate) fn with_layout(sizes: [usize; D], depth: usize, fill: T) -> Self {
        assert!(
            D > 0,
            "PochoirArray requires at least one spatial dimension"
        );
        assert!(
            depth >= 1,
            "stencil depth must be at least 1 (a depth-0 array would alias the read and \
             write time slices)"
        );
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every spatial extent must be positive"
        );
        // The unit-stride (last) dimension's extent is rounded up so every row starts
        // on a GRID_ALIGN boundary of the 64-byte-aligned allocation — the storage
        // half of the vector row path.  Element sizes that don't divide 64
        // (e.g. LBM's [f64; 7]) keep a dense layout (pad factor 1).
        let pad = row_pad_elems::<T>();
        let mut strides = [0usize; D];
        let mut acc = 1usize;
        for d in (0..D).rev() {
            strides[d] = acc;
            let extent = if d == D - 1 {
                sizes[d]
                    .div_ceil(pad)
                    .checked_mul(pad)
                    .expect("grid too large: stride overflow")
            } else {
                sizes[d]
            };
            acc = acc
                .checked_mul(extent)
                .expect("grid too large: stride overflow");
        }
        let slice_len = acc;
        let time_slices = depth + 1;
        let total = slice_len
            .checked_mul(time_slices)
            .expect("grid too large: total size overflow");
        PochoirArray {
            sizes,
            strides,
            slice_len,
            time_slices,
            time_magic: time_magic(time_slices),
            data: AlignedVec::filled(total, fill),
            boundary: Boundary::Constant(fill),
        }
    }

    /// The spatial extent along `dim`.
    pub fn size(&self, dim: usize) -> usize {
        self.sizes[dim]
    }

    /// All spatial extents.
    pub fn sizes(&self) -> [usize; D] {
        self.sizes
    }

    /// Spatial extents as `i64` (the coordinate type used by kernels).
    pub fn sizes_i64(&self) -> [i64; D] {
        let mut out = [0i64; D];
        for (o, &size) in out.iter_mut().zip(self.sizes.iter()) {
            *o = size as i64;
        }
        out
    }

    /// Number of storage elements in one time slice.  At least the product of the
    /// spatial extents — larger when the unit-stride dimension is padded for
    /// row alignment (see [`GRID_ALIGN`]); [`PochoirArray::snapshot`] skips the
    /// padding.
    pub fn slice_len(&self) -> usize {
        self.slice_len
    }

    /// Number of time slices kept (stencil depth + 1).
    pub fn time_slices(&self) -> usize {
        self.time_slices
    }

    /// Row-major strides of the spatial dimensions.  The stride of dimension
    /// `D - 2` (the row stride) reflects the padded last-dimension extent, so it
    /// can exceed `sizes[D - 1]`.
    pub fn strides(&self) -> [usize; D] {
        self.strides
    }

    /// Registers the boundary function of this array (`Register_Boundary` in the paper).
    pub fn register_boundary(&mut self, boundary: Boundary<T, D>) {
        self.boundary = boundary;
    }

    /// The currently registered boundary function.
    pub fn boundary(&self) -> &Boundary<T, D> {
        &self.boundary
    }

    /// True if `x` lies inside the spatial domain.
    pub fn in_domain(&self, x: [i64; D]) -> bool {
        (0..D).all(|d| x[d] >= 0 && x[d] < self.sizes[d] as i64)
    }

    #[inline]
    fn slice_index(&self, t: i64) -> usize {
        wrap_time(t, self.time_slices, self.time_magic)
    }

    #[inline]
    fn spatial_offset(&self, x: [i64; D]) -> usize {
        let mut off = 0usize;
        for (d, (&c, &stride)) in x.iter().zip(self.strides.iter()).enumerate() {
            debug_assert!(
                c >= 0 && (c as usize) < self.sizes[d],
                "coordinate {c} out of range on axis {d} (size {})",
                self.sizes[d]
            );
            off += (c as usize) * stride;
        }
        off
    }

    /// Linear offset of `(t, x)` within the backing storage.
    pub fn offset(&self, t: i64, x: [i64; D]) -> usize {
        self.slice_index(t) * self.slice_len + self.spatial_offset(x)
    }

    /// Storage elements spanned by one outermost-axis row of a time slice, padding
    /// included (one element in 1D, where the outermost axis *is* the unit-stride
    /// axis).  Arrays sharing the inner extents (and `T`) have identical slab
    /// layouts, which is what makes the shard layer's seam copies plain `memcpy`s.
    pub(crate) fn slab_elems(&self) -> usize {
        if D == 1 {
            1
        } else {
            self.strides[0]
        }
    }

    /// Storage range of outermost-axis rows `rows` of time slice `t`: consecutive
    /// rows of one slice are consecutive slabs, so a row range is one span.
    fn slab_range(&self, t: i64, rows: Range<i64>) -> Range<usize> {
        assert!(
            0 <= rows.start && rows.start <= rows.end && rows.end as usize <= self.sizes[0],
            "rows {rows:?} outside the outermost extent {}",
            self.sizes[0]
        );
        let base = self.slice_index(t) * self.slice_len;
        let len = self.slab_elems();
        base + rows.start as usize * len..base + rows.end as usize * len
    }

    /// The backing storage of outermost-axis rows `rows` of time slice `t`, padding
    /// included.
    pub(crate) fn slabs(&self, t: i64, rows: Range<i64>) -> &[T] {
        &self.data[self.slab_range(t, rows)]
    }

    /// Mutable view of the backing storage of outermost-axis rows `rows` of time
    /// slice `t`.
    pub(crate) fn slabs_mut(&mut self, t: i64, rows: Range<i64>) -> &mut [T] {
        let range = self.slab_range(t, rows);
        &mut self.data[range]
    }

    /// Splits the storage into disjoint bands of outermost-axis rows: band `i` holds
    /// rows `starts[i]..starts[i + 1]` (the last runs to the extent), one slice per
    /// storage slot in slot order, padding included.  `starts` must be ascending and
    /// begin at 0.  The shard layer's gather hands each band to the tile owning it.
    pub(crate) fn row_bands_mut(&mut self, starts: &[i64]) -> Vec<Vec<&mut [T]>> {
        assert_eq!(starts.first(), Some(&0), "bands must start at row 0");
        let (slab, rows) = (self.slab_elems(), self.sizes[0]);
        let mut bands: Vec<Vec<&mut [T]>> = starts
            .iter()
            .map(|_| Vec::with_capacity(self.time_slices))
            .collect();
        for slot in self.data.chunks_exact_mut(self.slice_len) {
            let mut rest = &mut slot[..rows * slab];
            for (band, &start) in bands.iter_mut().zip(starts).rev() {
                let (head, tail) = rest.split_at_mut(start as usize * slab);
                band.push(tail);
                rest = head;
            }
        }
        bands
    }

    /// Reads the value at `(t, x)`.  Out-of-domain coordinates are resolved through the
    /// registered boundary function, as in the paper's Phase-1 template library.
    pub fn get(&self, t: i64, x: [i64; D]) -> T {
        if self.in_domain(x) {
            self.data[self.offset(t, x)]
        } else {
            let read = |tt: i64, xx: [i64; D]| self.data[self.offset(tt, xx)];
            self.boundary.resolve(&read, self.sizes_i64(), t, x)
        }
    }

    /// Reads an in-domain value without boundary handling (bounds checked in debug builds).
    #[inline]
    pub fn get_interior(&self, t: i64, x: [i64; D]) -> T {
        self.data[self.offset(t, x)]
    }

    /// Writes the value at `(t, x)`.  Panics when `x` is outside the domain.
    pub fn set(&mut self, t: i64, x: [i64; D], value: T) {
        assert!(
            self.in_domain(x),
            "cannot write outside the computing domain: {x:?}"
        );
        let off = self.offset(t, x);
        self.data[off] = value;
    }

    /// Storage range of time slice `t` and the stride between its unit-stride rows
    /// (the padded last extent).  Only the last dimension is padded, so a slice is
    /// exactly its rows laid end to end at that stride.
    fn row_layout(&self, t: i64) -> (Range<usize>, usize) {
        let base = self.slice_index(t) * self.slice_len;
        let outer: usize = self.sizes[..D - 1].iter().product();
        (base..base + self.slice_len, self.slice_len / outer)
    }

    /// The dense unit-stride rows of time slice `t` in row-major order, alignment
    /// padding skipped: `sizes[..D - 1].product()` slices of `sizes[D - 1]` elements.
    pub fn rows(&self, t: i64) -> impl Iterator<Item = &[T]> {
        let (slice, stride) = self.row_layout(t);
        let row_len = self.sizes[D - 1];
        self.data[slice]
            .chunks_exact(stride)
            .map(move |row| &row[..row_len])
    }

    /// Mutable counterpart of [`PochoirArray::rows`].
    pub fn rows_mut(&mut self, t: i64) -> impl Iterator<Item = &mut [T]> {
        let (slice, stride) = self.row_layout(t);
        let row_len = self.sizes[D - 1];
        self.data[slice]
            .chunks_exact_mut(stride)
            .map(move |row| &mut row[..row_len])
    }

    /// Fills time slice `t` from a function of the spatial coordinates.
    pub fn fill_time_slice(&mut self, t: i64, mut f: impl FnMut([i64; D]) -> T) {
        let sizes = self.sizes;
        let mut x = [0i64; D]; // odometer over the outer (non-row) dimensions
        for row in self.rows_mut(t) {
            for (i, cell) in row.iter_mut().enumerate() {
                x[D - 1] = i as i64;
                *cell = f(x);
            }
            for d in (0..D - 1).rev() {
                x[d] += 1;
                if (x[d] as usize) < sizes[d] {
                    break;
                }
                x[d] = 0;
            }
        }
    }

    /// Copies time slice `t` into a flat, densely packed `Vec` in row-major order
    /// (useful for comparing results between engines).  Alignment padding between
    /// rows is skipped, so the result always has `sizes.iter().product()` elements.
    pub fn snapshot(&self, t: i64) -> Vec<T> {
        let mut out = Vec::with_capacity(self.sizes.iter().product());
        for row in self.rows(t) {
            out.extend_from_slice(row);
        }
        out
    }

    /// Raw engine-facing handle.  Only the engines use this; user code goes through
    /// `get`/`set`.
    pub(crate) fn raw(&mut self) -> RawGrid<'_, T, D> {
        RawGrid {
            ptr: self.data.as_mut_ptr(),
            sizes: self.sizes_i64(),
            strides: self.strides,
            slice_len: self.slice_len,
            time_slices: self.time_slices,
            time_magic: self.time_magic,
            boundary: &self.boundary,
            _marker: PhantomData,
        }
    }
}

impl<T: Copy, const D: usize> Clone for PochoirArray<T, D> {
    fn clone(&self) -> Self {
        PochoirArray {
            sizes: self.sizes,
            strides: self.strides,
            slice_len: self.slice_len,
            time_slices: self.time_slices,
            time_magic: self.time_magic,
            data: self.data.clone(),
            boundary: self.boundary.clone(),
        }
    }
}

impl<T: Copy + std::fmt::Display, const D: usize> std::fmt::Display for PochoirArray<T, D> {
    /// Pretty-prints the *latest written* content of every time slice (mirrors the
    /// paper's overloaded `<<` operator).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for slice in 0..self.time_slices {
            writeln!(f, "-- time slice {slice} --")?;
            let mut it = SpaceIter::new(self.sizes_i64());
            let mut count = 0usize;
            while let Some(x) = it.next_point() {
                let off = slice * self.slice_len + self.spatial_offset(x);
                write!(f, "{} ", self.data[off])?;
                count += 1;
                if D >= 1 && count.is_multiple_of(self.sizes[D - 1]) {
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

/// Row-major iterator over all coordinates of a box `[0, sizes)`.
#[derive(Debug, Clone)]
pub struct SpaceIter<const D: usize> {
    sizes: [i64; D],
    next: Option<[i64; D]>,
}

impl<const D: usize> SpaceIter<D> {
    /// Iterates `[0, sizes)` in row-major order.
    pub fn new(sizes: [i64; D]) -> Self {
        let start = if sizes.iter().all(|&s| s > 0) {
            Some([0i64; D])
        } else {
            None
        };
        SpaceIter { sizes, next: start }
    }

    /// Returns the next coordinate, or `None` when exhausted.
    pub fn next_point(&mut self) -> Option<[i64; D]> {
        let current = self.next?;
        // Advance the odometer.
        let mut x = current;
        let mut d = D;
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            x[d] += 1;
            if x[d] < self.sizes[d] {
                self.next = Some(x);
                break;
            }
            x[d] = 0;
            if d == 0 {
                self.next = None;
                break;
            }
        }
        Some(current)
    }
}

impl<const D: usize> Iterator for SpaceIter<D> {
    type Item = [i64; D];

    fn next(&mut self) -> Option<Self::Item> {
        self.next_point()
    }
}

/// An engine-facing raw handle to a Pochoir array.
///
/// The pointer allows concurrent writes from multiple worker threads.  Safety rests on
/// the trapezoidal decomposition's guarantee that concurrently processed subzoids touch
/// disjoint space-time points (Lemma 1 of the paper); the `verify` test engine checks the
/// write-once property explicitly.
pub struct RawGrid<'a, T, const D: usize> {
    ptr: *mut T,
    sizes: [i64; D],
    strides: [usize; D],
    slice_len: usize,
    time_slices: usize,
    time_magic: u64,
    boundary: &'a Boundary<T, D>,
    _marker: PhantomData<&'a mut T>,
}

impl<'a, T, const D: usize> Clone for RawGrid<'a, T, D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T, const D: usize> Copy for RawGrid<'a, T, D> {}

// Safety: see the type-level comment; concurrent access is coordinated by the engines.
unsafe impl<'a, T: Send + Sync, const D: usize> Send for RawGrid<'a, T, D> {}
unsafe impl<'a, T: Send + Sync, const D: usize> Sync for RawGrid<'a, T, D> {}

impl<'a, T: Copy, const D: usize> RawGrid<'a, T, D> {
    /// Spatial extents.
    #[inline]
    pub fn sizes(&self) -> [i64; D] {
        self.sizes
    }

    /// The boundary function registered on the underlying array.
    #[inline]
    pub fn boundary(&self) -> &'a Boundary<T, D> {
        self.boundary
    }

    /// Number of time slices.
    #[inline]
    pub fn time_slices(&self) -> usize {
        self.time_slices
    }

    /// Number of points per time slice.
    #[inline]
    pub fn slice_len(&self) -> usize {
        self.slice_len
    }

    /// Size in bytes of one grid element (used by the cache tracer).
    #[inline]
    pub fn element_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }

    /// Linear element offset of `(t, x)`; `x` must be in-domain.
    #[inline]
    pub fn offset(&self, t: i64, x: [i64; D]) -> usize {
        let slice = wrap_time(t, self.time_slices, self.time_magic);
        let mut off = slice * self.slice_len;
        for (d, (&c, &stride)) in x.iter().zip(self.strides.iter()).enumerate() {
            debug_assert!(
                c >= 0 && c < self.sizes[d],
                "raw access out of range: axis {d}, coordinate {c}, size {}",
                self.sizes[d]
            );
            off += (c as usize) * stride;
        }
        off
    }

    /// True if `x` lies inside the spatial domain.
    #[inline]
    pub fn in_domain(&self, x: [i64; D]) -> bool {
        (0..D).all(|d| x[d] >= 0 && x[d] < self.sizes[d])
    }

    /// Unchecked read of an in-domain point.
    ///
    /// # Safety-related behaviour
    ///
    /// Debug builds assert the coordinate is in-domain; release builds rely on the
    /// decomposition guaranteeing it.
    #[inline]
    pub fn read(&self, t: i64, x: [i64; D]) -> T {
        let off = self.offset(t, x);
        unsafe { *self.ptr.add(off) }
    }

    /// Unchecked write of an in-domain point.
    #[inline]
    pub fn write(&self, t: i64, x: [i64; D], value: T) {
        let off = self.offset(t, x);
        unsafe {
            *self.ptr.add(off) = value;
        }
    }

    /// Read with boundary resolution: out-of-domain coordinates go through the boundary
    /// function, exactly like `PochoirArray::get`.
    pub fn read_with_boundary(&self, t: i64, x: [i64; D]) -> T {
        if self.in_domain(x) {
            self.read(t, x)
        } else {
            let read = |tt: i64, xx: [i64; D]| self.read(tt, xx);
            self.boundary.resolve(&read, self.sizes, t, x)
        }
    }

    #[inline]
    fn debug_check_row(&self, x: [i64; D], len: usize) {
        debug_assert!(
            x[D - 1] >= 0 && x[D - 1] + len as i64 <= self.sizes[D - 1],
            "row [{}, {}) out of range on the unit-stride axis (size {})",
            x[D - 1],
            x[D - 1] + len as i64,
            self.sizes[D - 1]
        );
        for (d, &c) in x.iter().enumerate().take(D - 1) {
            debug_assert!(
                c >= 0 && c < self.sizes[d],
                "row access out of range: axis {d}, coordinate {c}, size {}",
                self.sizes[d]
            );
        }
    }

    /// Read-only view of the `len` elements starting at `(t, x)` along the unit-stride
    /// (last) dimension.
    ///
    /// This is the storage-level half of the paper's `--split-pointer` indexing style:
    /// the time-slice base and the outer-dimension offset are resolved **once**, and the
    /// whole row is then walked at unit stride with no further address arithmetic.
    ///
    /// # Safety
    ///
    /// The row must be in-domain (`x` on every axis, `x[D-1] + len` within the last
    /// extent — debug builds assert this), and no element it covers may be written
    /// through this or any other handle while the returned slice is live.  The engines'
    /// base cases satisfy this: kernels read rows of time slices `t`, `t − 1`, … and
    /// write only slice `t + 1`, which occupies distinct storage.
    #[inline]
    pub unsafe fn row(&self, t: i64, x: [i64; D], len: usize) -> &'a [T] {
        self.debug_check_row(x, len);
        let off = self.offset(t, x);
        unsafe { std::slice::from_raw_parts(self.ptr.add(off), len) }
    }

    /// Unit-stride write cursor over the `len` elements starting at `(t, x)`.
    ///
    /// The same one-time address resolution as [`RawGrid::row`], for the output row.  A
    /// cursor rather than a `&mut [T]` so the aliasing story stays the one documented on
    /// [`RawGrid`]: concurrent subzoids touch disjoint points, which a long-lived unique
    /// reference could not express.
    ///
    /// # Safety
    ///
    /// The row must be in-domain (debug-asserted), and the elements it covers must not
    /// overlap any live slice obtained from [`RawGrid::row`] (see there).
    #[inline]
    pub unsafe fn row_out(&self, t: i64, x: [i64; D], len: usize) -> RowWriter<'a, T> {
        self.debug_check_row(x, len);
        let off = self.offset(t, x);
        RowWriter {
            ptr: unsafe { self.ptr.add(off) },
            len,
            _marker: PhantomData,
        }
    }
}

/// A cheap unit-stride write cursor over one grid row, produced by
/// [`RawGrid::row_out`].
///
/// Writes go straight through the precomputed base pointer; index `i` addresses the
/// `i`-th element of the row.
pub struct RowWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut T>,
}

impl<'a, T: Copy> RowWriter<'a, T> {
    /// Number of elements in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the row holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at row-local index `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        debug_assert!(
            i < self.len,
            "row write {i} out of range (len {})",
            self.len
        );
        unsafe {
            *self.ptr.add(i) = value;
        }
    }

    /// Raw base pointer of the row, for the one hand-written vector body (Life's
    /// AVX2 row in `pochoir-stencils`), which stores 32 cells at once; every other
    /// row writes through [`RowWriter::set`].
    ///
    /// Stores through the pointer must stay within the row's `len` elements and
    /// observe the same aliasing contract as [`RowWriter::set`].
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::AxisRule;

    #[test]
    fn strides_are_row_major() {
        // f64 rows pad to 8 elements (64 bytes): the last extent 6 rounds up to 8.
        let a: PochoirArray<f64, 3> = PochoirArray::new([4, 5, 6]);
        assert_eq!(a.strides(), [40, 8, 1]);
        assert_eq!(a.slice_len(), 160);
        assert_eq!(a.time_slices(), 2);
    }

    #[test]
    fn rows_are_cache_line_aligned() {
        let a: PochoirArray<f64, 2> = PochoirArray::new([3, 5]);
        assert_eq!(a.strides(), [8, 1]);
        assert_eq!(a.slice_len(), 24);
        // Every row start — across both time slices — is GRID_ALIGN-aligned.
        for t in 0..2i64 {
            for x0 in 0..3i64 {
                let addr = &a.data[a.offset(t, [x0, 0])] as *const f64 as usize;
                assert!(addr.is_multiple_of(GRID_ALIGN), "t={t} x0={x0}");
            }
        }
    }

    #[test]
    fn elements_not_dividing_the_cache_line_stay_dense() {
        // LBM-style 56-byte cells: 64 % 56 != 0, so rows are not padded.
        let a: PochoirArray<[f64; 7], 2> = PochoirArray::new([3, 5]);
        assert_eq!(a.strides(), [5, 1]);
        assert_eq!(a.slice_len(), 15);
    }

    #[test]
    fn snapshot_skips_row_padding() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([3, 5]);
        a.fill_time_slice(0, |x| (x[0] * 10 + x[1]) as f64);
        let snap = a.snapshot(0);
        assert_eq!(snap.len(), 15);
        for x0 in 0..3 {
            for x1 in 0..5 {
                assert_eq!(snap[x0 * 5 + x1], (x0 * 10 + x1) as f64);
            }
        }
    }

    #[test]
    fn aligned_vec_clones_and_rounds_trip() {
        let mut v = AlignedVec::filled(10usize, 7u32);
        v[3] = 42;
        let c = v.clone();
        assert_eq!(&c[..], &[7, 7, 7, 42, 7, 7, 7, 7, 7, 7]);
        assert!((c.as_ptr() as usize).is_multiple_of(GRID_ALIGN));
        let empty: AlignedVec<u32> = AlignedVec::filled(0, 0);
        assert!(empty.is_empty());
        let _ = empty.clone();
    }

    #[test]
    fn get_set_round_trip() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([3, 4]);
        a.set(0, [1, 2], 42.0);
        assert_eq!(a.get(0, [1, 2]), 42.0);
        assert_eq!(a.get(0, [0, 0]), 0.0);
    }

    #[test]
    fn time_slices_wrap_modulo_depth_plus_one() {
        let mut a: PochoirArray<f64, 1> = PochoirArray::with_depth([4], 1);
        a.set(0, [1], 1.0);
        a.set(1, [1], 2.0);
        // Time 2 aliases slice 0.
        assert_eq!(a.get(2, [1]), 1.0);
        a.set(2, [1], 3.0);
        assert_eq!(a.get(0, [1]), 3.0);
        // Depth-2 arrays have three slices.
        let b: PochoirArray<f64, 1> = PochoirArray::with_depth([4], 2);
        assert_eq!(b.time_slices(), 3);
    }

    #[test]
    fn out_of_domain_reads_use_boundary() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([3, 3]);
        a.register_boundary(Boundary::Constant(-5.0));
        assert_eq!(a.get(0, [-1, 0]), -5.0);
        assert_eq!(a.get(0, [0, 3]), -5.0);
        a.register_boundary(Boundary::Periodic);
        a.set(0, [2, 1], 9.0);
        assert_eq!(a.get(0, [-1, 1]), 9.0);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_is_rejected() {
        let _: PochoirArray<f64, 2> = PochoirArray::with_depth([4, 4], 0);
    }

    #[test]
    #[should_panic(expected = "outside the computing domain")]
    fn out_of_domain_write_panics() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([3, 3]);
        a.set(0, [3, 0], 1.0);
    }

    #[test]
    fn fill_time_slice_visits_every_point() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([3, 4]);
        a.fill_time_slice(0, |x| (x[0] * 10 + x[1]) as f64);
        for x0 in 0..3 {
            for x1 in 0..4 {
                assert_eq!(a.get(0, [x0, x1]), (x0 * 10 + x1) as f64);
            }
        }
    }

    #[test]
    fn space_iter_counts_and_order() {
        let pts: Vec<[i64; 2]> = SpaceIter::new([2, 3]).collect();
        assert_eq!(pts, vec![[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]);
        let pts3: Vec<[i64; 3]> = SpaceIter::new([2, 2, 2]).collect();
        assert_eq!(pts3.len(), 8);
    }

    #[test]
    fn snapshot_reflects_slice_content() {
        let mut a: PochoirArray<i64, 1> = PochoirArray::new([4]);
        a.fill_time_slice(1, |x| x[0] * 2);
        assert_eq!(a.snapshot(1), vec![0, 2, 4, 6]);
        assert_eq!(a.snapshot(0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn raw_grid_reads_and_writes() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([4, 4]);
        a.register_boundary(Boundary::Mixed([AxisRule::Clamp, AxisRule::Periodic]));
        {
            let raw = a.raw();
            raw.write(1, [2, 3], 8.0);
            assert_eq!(raw.read(1, [2, 3]), 8.0);
            // Clamped on axis 0, wrapped on axis 1.
            raw.write(0, [0, 0], 3.0);
            assert_eq!(raw.read_with_boundary(0, [-1, 4]), 3.0);
        }
        assert_eq!(a.get(1, [2, 3]), 8.0);
    }

    #[test]
    fn display_prints_without_panicking() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([2, 2]);
        a.set(0, [0, 0], 1.5);
        let s = format!("{a}");
        assert!(s.contains("time slice 0"));
        assert!(s.contains("1.5"));
    }

    #[test]
    fn one_dimensional_grid_works() {
        let mut a: PochoirArray<u32, 1> = PochoirArray::new([10]);
        a.fill_time_slice(0, |x| x[0] as u32);
        assert_eq!(a.get(0, [9]), 9);
        assert_eq!(a.size(0), 10);
    }

    #[test]
    fn wrap_time_matches_rem_euclid_everywhere() {
        for n in (1..=9usize).chain([16, 17, 100]) {
            let magic = time_magic(n);
            for t in -1000i64..1000 {
                assert_eq!(
                    wrap_time(t, n, magic),
                    t.rem_euclid(n as i64) as usize,
                    "t={t} n={n}"
                );
            }
            // Far outside the fast-path bias window (cold fallback).
            for t in [i64::MIN, i64::MIN / 2, -(1i64 << 40), 1i64 << 40, i64::MAX] {
                assert_eq!(wrap_time(t, n, magic), t.rem_euclid(n as i64) as usize);
            }
        }
    }

    #[test]
    fn rows_expose_unit_stride_storage() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([3, 5]);
        a.fill_time_slice(0, |x| (x[0] * 10 + x[1]) as f64);
        {
            let raw = a.raw();
            // Safety: in-domain rows; the read row (slice 0) and the written row
            // (slice 1) occupy distinct storage.
            let row = unsafe { raw.row(0, [1, 1], 3) };
            assert_eq!(row, &[11.0, 12.0, 13.0]);
            let mut out = unsafe { raw.row_out(1, [2, 0], 5) };
            assert_eq!(out.len(), 5);
            assert!(!out.is_empty());
            for i in 0..5 {
                out.set(i, i as f64 * 2.0);
            }
        }
        assert_eq!(a.snapshot(1)[10..15], [0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    /// `rows`/`rows_mut` against the per-cell accessors, on extents that are not
    /// multiples of the 64-byte row pad, at every time slice.
    fn check_rows<T, const D: usize>(sizes: [usize; D], cell: impl Fn(u64) -> T)
    where
        T: Copy + Default + PartialEq + std::fmt::Debug,
    {
        let mut a: PochoirArray<T, D> = PochoirArray::with_depth(sizes, 2);
        let row_len = sizes[D - 1];
        for t in 0..3i64 {
            let mut n = t as u64 * 1000;
            for row in a.rows_mut(t) {
                assert_eq!(row.len(), row_len);
                for v in row {
                    *v = cell(n);
                    n += 1;
                }
            }
        }
        for t in 0..3i64 {
            let dense: Vec<T> = a.rows(t).flatten().copied().collect();
            assert_eq!(dense.len(), sizes.iter().product::<usize>());
            assert_eq!(dense, a.snapshot(t));
            let by_cell: Vec<T> = SpaceIter::new(a.sizes_i64())
                .map(|x| a.get_interior(t, x))
                .collect();
            assert_eq!(dense, by_cell);
            assert_eq!(dense[0], cell(t as u64 * 1000));
        }
    }

    #[test]
    fn rows_concatenate_to_the_snapshot() {
        check_rows::<f64, 1>([13], |n| n as f64 * 0.5);
        check_rows::<f64, 2>([3, 5], |n| n as f64 * 0.5);
        check_rows::<f64, 3>([2, 3, 9], |n| n as f64 * 0.5);
        check_rows::<u8, 1>([70], |n| n as u8);
        check_rows::<u8, 2>([4, 65], |n| n as u8);
        check_rows::<u8, 3>([2, 3, 7], |n| n as u8);
        // A row that is already a multiple of the pad has no padding to skip.
        check_rows::<f64, 2>([3, 8], |n| n as f64);
    }

    #[test]
    fn four_dimensional_grid_works() {
        let mut a: PochoirArray<f32, 4> = PochoirArray::new([3, 3, 3, 3]);
        a.set(0, [1, 2, 0, 1], 4.5);
        assert_eq!(a.get(0, [1, 2, 0, 1]), 4.5);
        // f32 rows pad to 16 elements: the last extent 3 rounds up to 16.
        assert_eq!(a.strides(), [144, 48, 16, 1]);
    }
}
