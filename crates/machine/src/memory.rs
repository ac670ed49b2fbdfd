//! Per-node memories: local array segments with overlap (ghost) areas,
//! plus replicated scalars and shared read-only constants.
//!
//! A distributed array's node-local segment is stored row-major over the
//! *padded* extents `ghost_lo[d] + shape[d] + ghost_hi[d]`. Interior local
//! indices run `0..shape[d]`; ghost cells are addressed with indices in
//! `-ghost_lo[d]..0` and `shape[d]..shape[d]+ghost_hi[d]` — exactly the
//! "overlap areas" that `overlap_shift` (paper §5.1) fills so that stencil
//! loops can read `A(i±c)` without copying.
//!
//! # Lean node state for thousand-rank machines
//!
//! Two facilities keep a 1024–4096-rank machine CI-sized:
//!
//! * **Lazy segments** ([`LocalArray::with_ghost_lazy`]): the padded
//!   buffer is not allocated until the first write (or explicit
//!   [`LocalArray::materialize`]). Reads of an unmaterialized segment
//!   return the element type's zero — observationally identical to the
//!   eager zero-filled allocation, so executors can allocate every
//!   declared array on every rank without touching memory for ranks
//!   that own nothing (a `(*, BLOCK)` array at large P leaves most
//!   ranks' segments empty or untouched).
//! * **Shared constants** ([`NodeMemory::install_consts`]): one
//!   reference-counted read-only table visible through every rank's
//!   scalar lookups, instead of P copies of the same values.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use f90d_distrib::Segment;

use crate::int_hash::IntMap;
use crate::value::{ArrayData, ElemType, Value};

/// One node-local array segment.
#[derive(Debug, Clone)]
pub struct LocalArray {
    /// Interior extents (the owned segment shape).
    pub shape: Vec<i64>,
    /// Ghost cells below each dimension.
    pub ghost_lo: Vec<i64>,
    /// Ghost cells above each dimension.
    pub ghost_hi: Vec<i64>,
    ty: ElemType,
    /// Padded element count the segment represents (allocated or not).
    padded_len: usize,
    /// Backing storage. Empty (`len == 0`) while a lazily-constructed
    /// segment is still all-zero and unwritten; [`LocalArray::offset`]
    /// math is against `padded_len`, so flat offsets are identical
    /// before and after materialization.
    data: ArrayData,
}

impl LocalArray {
    /// Allocate a zero-filled segment without ghost areas.
    pub fn zeros(ty: ElemType, shape: &[i64]) -> Self {
        Self::with_ghost(ty, shape, &vec![0; shape.len()], &vec![0; shape.len()])
    }

    /// Allocate a zero-filled segment with the given ghost widths.
    pub fn with_ghost(ty: ElemType, shape: &[i64], ghost_lo: &[i64], ghost_hi: &[i64]) -> Self {
        let mut a = Self::with_ghost_lazy(ty, shape, ghost_lo, ghost_hi);
        a.materialize();
        a
    }

    /// Like [`LocalArray::with_ghost`] but defers the padded-buffer
    /// allocation to the first write. Reads before that see zeros — the
    /// same values the eager constructor fills in — so the two
    /// constructors are observationally interchangeable.
    pub fn with_ghost_lazy(
        ty: ElemType,
        shape: &[i64],
        ghost_lo: &[i64],
        ghost_hi: &[i64],
    ) -> Self {
        assert_eq!(shape.len(), ghost_lo.len());
        assert_eq!(shape.len(), ghost_hi.len());
        assert!(shape.iter().all(|&e| e >= 0));
        assert!(ghost_lo.iter().chain(ghost_hi).all(|&g| g >= 0));
        let padded: i64 = shape
            .iter()
            .zip(ghost_lo.iter().zip(ghost_hi))
            .map(|(&s, (&lo, &hi))| s + lo + hi)
            .product();
        LocalArray {
            shape: shape.to_vec(),
            ghost_lo: ghost_lo.to_vec(),
            ghost_hi: ghost_hi.to_vec(),
            ty,
            padded_len: padded.max(0) as usize,
            data: ArrayData::zeros(ty, 0),
        }
    }

    /// `true` once the padded buffer is allocated (an empty segment
    /// counts as materialized — there is nothing to allocate).
    pub fn is_materialized(&self) -> bool {
        self.data.len() == self.padded_len
    }

    /// Allocate the padded zero buffer now. Idempotent; called
    /// automatically by every write path, and explicitly by hot loops
    /// that need a raw [`LocalArray::data`] slice view.
    pub fn materialize(&mut self) {
        if !self.is_materialized() {
            self.data = ArrayData::zeros(self.ty, self.padded_len);
        }
    }

    /// Element type.
    pub fn elem_type(&self) -> ElemType {
        self.ty
    }

    /// Rank.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of interior elements.
    pub fn interior_len(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Padded extent of dimension `d`.
    #[inline]
    pub fn padded_extent(&self, d: usize) -> i64 {
        self.shape[d] + self.ghost_lo[d] + self.ghost_hi[d]
    }

    /// Where local index vectors sit in the padded storage, for
    /// [`f90d_distrib::Dad::for_each_owned`]: [`LocalArray::offset`] as
    /// strides and ghost bias.
    pub fn segment(&self) -> Segment {
        Segment::padded(&self.shape, &self.ghost_lo, &self.ghost_hi)
    }

    /// Flat offset of a (possibly ghost) local index vector.
    #[inline]
    pub fn offset(&self, idx: &[i64]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        let mut off: i64 = 0;
        for d in 0..self.rank() {
            let i = idx[d];
            debug_assert!(
                i >= -self.ghost_lo[d] && i < self.shape[d] + self.ghost_hi[d],
                "local index {i} out of padded range on dim {d} (shape {:?}, ghosts {:?}/{:?})",
                self.shape,
                self.ghost_lo,
                self.ghost_hi
            );
            off = off * self.padded_extent(d) + (i + self.ghost_lo[d]);
        }
        off as usize
    }

    /// Read the element at local index `idx` (ghost indices allowed).
    #[inline]
    pub fn get(&self, idx: &[i64]) -> Value {
        self.get_flat(self.offset(idx))
    }

    /// Write the element at local index `idx` (ghost indices allowed).
    #[inline]
    pub fn set(&mut self, idx: &[i64], v: Value) {
        let off = self.offset(idx);
        self.set_flat(off, v);
    }

    /// Read by flat padded offset (hot paths that precompute offsets).
    #[inline]
    pub fn get_flat(&self, off: usize) -> Value {
        if self.is_materialized() {
            self.data.get(off)
        } else {
            debug_assert!(off < self.padded_len, "flat offset {off} out of range");
            self.ty.zero()
        }
    }

    /// Write by flat padded offset.
    #[inline]
    pub fn set_flat(&mut self, off: usize, v: Value) {
        self.materialize();
        self.data.set(off, v);
    }

    /// Pack the elements at the flat padded `offsets`, in order, into a
    /// new payload of this segment's element type — the message side of
    /// a vectorized send. The element type is matched once per call,
    /// not once per element; an unmaterialized lazy segment packs zeros
    /// without allocating itself.
    ///
    /// # Panics
    /// Panics on an offset outside the padded segment.
    pub fn gather_flat(&self, offsets: impl IntoIterator<Item = usize>) -> ArrayData {
        let mut out = ArrayData::zeros(self.ty, 0);
        self.gather_flat_into(offsets, &mut out);
        out
    }

    /// [`LocalArray::gather_flat`] appending to `out`, for one message
    /// that carries strips of several arrays.
    ///
    /// # Panics
    /// Panics when `out` is not of this segment's element type.
    pub fn gather_flat_into(&self, offsets: impl IntoIterator<Item = usize>, out: &mut ArrayData) {
        fn gather<T: Copy + Default>(
            src: Option<&[T]>,
            len: usize,
            offsets: impl Iterator<Item = usize>,
            out: &mut Vec<T>,
        ) {
            match src {
                Some(src) => out.extend(offsets.map(|o| src[o])),
                None => out.extend(offsets.map(|o| {
                    assert!(o < len, "flat offset {o} out of range ({len})");
                    T::default()
                })),
            }
        }
        let (live, len, offsets) = (self.is_materialized(), self.padded_len, offsets.into_iter());
        match (&self.data, out) {
            (ArrayData::Int(s), ArrayData::Int(o)) => gather(live.then_some(s), len, offsets, o),
            (ArrayData::Real(s), ArrayData::Real(o)) => gather(live.then_some(s), len, offsets, o),
            (ArrayData::Bool(s), ArrayData::Bool(o)) => gather(live.then_some(s), len, offsets, o),
            (ArrayData::Complex(s), ArrayData::Complex(o)) => {
                gather(live.then_some(s), len, offsets, o);
            }
            (_, out) => panic!(
                "gather of {:?} elements into a {:?} payload",
                self.ty,
                out.elem_type()
            ),
        }
    }

    /// Deposit the whole payload `data` at the flat padded `offsets`, in
    /// order — the receiving side of [`LocalArray::gather_flat`]. A
    /// payload of this segment's element type is copied by a loop over
    /// that type; any other is converted element by element under the
    /// Fortran assignment rules.
    ///
    /// # Panics
    /// Panics when `offsets` and `data` differ in length (nothing is
    /// silently truncated) or on an offset outside the padded segment.
    pub fn scatter_flat(&mut self, offsets: impl IntoIterator<Item = usize>, data: &ArrayData) {
        let end = self.scatter_flat_from(offsets, data, 0);
        assert_eq!(end, data.len(), "payload longer than its offset list");
    }

    /// [`LocalArray::scatter_flat`] at the consecutive offsets `start..`:
    /// a payload of this segment's element type lands as one slice
    /// copy.
    ///
    /// # Panics
    /// Panics when the run passes the end of the padded segment.
    pub fn copy_flat(&mut self, start: usize, data: &ArrayData) {
        let end = start + data.len();
        if data.is_empty() {
            return;
        }
        self.materialize();
        match (&mut self.data, data) {
            (ArrayData::Int(d), ArrayData::Int(s)) => d[start..end].copy_from_slice(s),
            (ArrayData::Real(d), ArrayData::Real(s)) => d[start..end].copy_from_slice(s),
            (ArrayData::Bool(d), ArrayData::Bool(s)) => d[start..end].copy_from_slice(s),
            (ArrayData::Complex(d), ArrayData::Complex(s)) => d[start..end].copy_from_slice(s),
            _ => self.scatter_flat(start..end, data),
        }
    }

    /// Deposit `data[start..]`'s leading elements, one per offset, and
    /// return the payload position after the last one — the unpacking
    /// of one array's strip out of a message that carries several.
    ///
    /// # Panics
    /// Panics when the payload runs out before the offsets do.
    pub fn scatter_flat_from(
        &mut self,
        offsets: impl IntoIterator<Item = usize>,
        data: &ArrayData,
        start: usize,
    ) -> usize {
        fn scatter<T: Copy>(
            dst: &mut [T],
            offsets: impl Iterator<Item = usize>,
            src: &[T],
        ) -> usize {
            let mut k = 0;
            for o in offsets {
                dst[o] = src[k];
                k += 1;
            }
            k
        }
        let mut offsets = offsets.into_iter().peekable();
        if offsets.peek().is_none() {
            // Nothing to write: a lazy segment stays unallocated.
            return start;
        }
        self.materialize();
        start
            + match (&mut self.data, data) {
                (ArrayData::Int(d), ArrayData::Int(s)) => scatter(d, offsets, &s[start..]),
                (ArrayData::Real(d), ArrayData::Real(s)) => scatter(d, offsets, &s[start..]),
                (ArrayData::Bool(d), ArrayData::Bool(s)) => scatter(d, offsets, &s[start..]),
                (ArrayData::Complex(d), ArrayData::Complex(s)) => scatter(d, offsets, &s[start..]),
                (d, s) => {
                    let mut k = 0;
                    for o in offsets {
                        d.set(o, s.get(start + k));
                        k += 1;
                    }
                    k
                }
            }
    }

    /// Borrow the raw storage.
    ///
    /// An unmaterialized lazy segment exposes an **empty** buffer here
    /// (there is nothing allocated to borrow); raw-slice consumers must
    /// call [`LocalArray::materialize`] first. The `get`/`set` accessors
    /// need no such care.
    pub fn data(&self) -> &ArrayData {
        &self.data
    }

    /// Mutably borrow the raw storage (materializing it first).
    pub fn data_mut(&mut self) -> &mut ArrayData {
        self.materialize();
        &mut self.data
    }
}

/// Observational equality: two segments are equal when every padded
/// element reads the same, whether or not either buffer is allocated —
/// a lazily-constructed all-zero segment equals its eager twin.
impl PartialEq for LocalArray {
    fn eq(&self, other: &Self) -> bool {
        if self.shape != other.shape
            || self.ghost_lo != other.ghost_lo
            || self.ghost_hi != other.ghost_hi
            || self.ty != other.ty
        {
            return false;
        }
        if self.is_materialized() && other.is_materialized() {
            return self.data == other.data;
        }
        (0..self.padded_len).all(|i| self.get_flat(i) == other.get_flat(i))
    }
}

/// A number no other memory's layout has had: see
/// [`NodeMemory::layout_stamp`].
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A node's memory: named array segments, named scalars, and an
/// optional shared read-only constant table.
#[derive(Debug, Clone)]
pub struct NodeMemory {
    /// The array segments, by slot ([`NodeMemory::slot`]).
    segments: Vec<LocalArray>,
    /// Each array's slot, by name.
    slots: IntMap<String, usize>,
    /// [`NodeMemory::layout_stamp`].
    stamp: u64,
    scalars: HashMap<String, Value>,
    /// Program constants shared (by reference) across every rank of a
    /// machine — one table, not P copies. Read through
    /// [`NodeMemory::scalar`]; local [`NodeMemory::set_scalar`] writes
    /// shadow it without mutating the shared table.
    consts: Option<Arc<HashMap<String, Value>>>,
}

impl Default for NodeMemory {
    fn default() -> Self {
        NodeMemory {
            segments: Vec::new(),
            slots: IntMap::default(),
            stamp: fresh_stamp(),
            scalars: HashMap::new(),
            consts: None,
        }
    }
}

impl NodeMemory {
    /// Fresh empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names this memory's slot assignment: it changes whenever an array
    /// may have left its [`NodeMemory::slot`] (a removal, a clear), and
    /// no two memories share it but for a clone, whose slots are the
    /// same. A plan that keeps slots keeps the stamp beside them, and an
    /// equal stamp says the slots still hold.
    pub fn layout_stamp(&self) -> u64 {
        self.stamp
    }

    /// Install (or replace) array `name`.
    pub fn insert_array(&mut self, name: impl Into<String>, arr: LocalArray) {
        let name = name.into();
        match self.slots.get(&name) {
            Some(&slot) => self.segments[slot] = arr,
            None => {
                self.slots.insert(name, self.segments.len());
                self.segments.push(arr);
            }
        }
    }

    /// Remove array `name`, returning it. The last slot's array moves
    /// into the freed one.
    pub fn remove_array(&mut self, name: &str) -> Option<LocalArray> {
        let slot = self.slots.remove(name)?;
        self.stamp = fresh_stamp();
        let arr = self.segments.swap_remove(slot);
        let moved = self.segments.len();
        if let Some(at) = self.slots.values_mut().find(|at| **at == moved) {
            *at = slot;
        }
        Some(arr)
    }

    /// Borrow array `name`.
    ///
    /// # Panics
    /// Panics when the array was never allocated on this node — that is a
    /// compiler bug, not a user error.
    pub fn array(&self, name: &str) -> &LocalArray {
        &self.segments[self.slot(name)]
    }

    /// Mutably borrow array `name`.
    pub fn array_mut(&mut self, name: &str) -> &mut LocalArray {
        let slot = self.slot(name);
        &mut self.segments[slot]
    }

    /// Where array `name` sits among [`NodeMemory::segments_mut`] — until
    /// an array is removed.
    ///
    /// # Panics
    /// As [`NodeMemory::array`].
    pub fn slot(&self, name: &str) -> usize {
        *(self.slots.get(name))
            .unwrap_or_else(|| panic!("array `{name}` not allocated on this node"))
    }

    /// Every array segment, by [`NodeMemory::slot`].
    pub fn segments(&self) -> &[LocalArray] {
        &self.segments
    }

    /// Every array segment, by [`NodeMemory::slot`]: several borrowed at
    /// once — one of them mutably — with `split_at_mut`.
    pub fn segments_mut(&mut self) -> &mut [LocalArray] {
        &mut self.segments
    }

    /// `true` when array `name` exists here.
    pub fn has_array(&self, name: &str) -> bool {
        self.slots.contains_key(name)
    }

    /// Set scalar `name` (a node-local write; shadows any shared
    /// constant of the same name on this rank only).
    pub fn set_scalar(&mut self, name: impl Into<String>, v: Value) {
        self.scalars.insert(name.into(), v);
    }

    /// Install the shared read-only constant table (see
    /// [`Machine::share_consts`](crate::Machine::share_consts), which
    /// installs one `Arc` clone per rank).
    pub fn install_consts(&mut self, consts: Arc<HashMap<String, Value>>) {
        self.consts = Some(consts);
    }

    /// Read scalar `name` — node-local scalars first, then the shared
    /// constant table.
    pub fn scalar(&self, name: &str) -> Value {
        self.scalar_opt(name)
            .unwrap_or_else(|| panic!("scalar `{name}` not defined on this node"))
    }

    /// Read scalar `name` if defined here or in the shared constants.
    pub fn scalar_opt(&self, name: &str) -> Option<Value> {
        self.scalars
            .get(name)
            .or_else(|| self.consts.as_ref().and_then(|c| c.get(name)))
            .copied()
    }

    /// Names of all arrays on this node (unordered).
    pub fn array_names(&self) -> impl Iterator<Item = &str> {
        self.slots.keys().map(|s| s.as_str())
    }

    /// Drop every array, scalar and shared-constant reference, keeping
    /// the map allocations — the
    /// [`Machine::reset`](crate::Machine::reset) path for machine reuse,
    /// so a recycled node memory starts exactly like a fresh one without
    /// rebuilding the `HashMap`s.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.slots.clear();
        self.stamp = fresh_stamp();
        self.scalars.clear();
        self.consts = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_layout_row_major() {
        let mut a = LocalArray::zeros(ElemType::Real, &[2, 3]);
        a.set(&[0, 0], Value::Real(1.0));
        a.set(&[0, 2], Value::Real(2.0));
        a.set(&[1, 0], Value::Real(3.0));
        assert_eq!(a.offset(&[0, 0]), 0);
        assert_eq!(a.offset(&[0, 2]), 2);
        assert_eq!(a.offset(&[1, 0]), 3);
        assert_eq!(a.get(&[1, 0]), Value::Real(3.0));
    }

    #[test]
    fn ghost_cells_addressable() {
        let mut a = LocalArray::with_ghost(ElemType::Real, &[4], &[1], &[2]);
        a.set(&[-1], Value::Real(-1.0));
        a.set(&[4], Value::Real(4.0));
        a.set(&[5], Value::Real(5.0));
        assert_eq!(a.get(&[-1]), Value::Real(-1.0));
        assert_eq!(a.get(&[4]), Value::Real(4.0));
        assert_eq!(a.get(&[5]), Value::Real(5.0));
        assert_eq!(a.padded_extent(0), 7);
        assert_eq!(a.interior_len(), 4);
    }

    #[test]
    fn ghost_2d_offsets_disjoint() {
        let a = LocalArray::with_ghost(ElemType::Int, &[3, 3], &[1, 1], &[1, 1]);
        let mut seen = std::collections::HashSet::new();
        for i in -1..4 {
            for j in -1..4 {
                assert!(seen.insert(a.offset(&[i, j])), "collision at ({i},{j})");
            }
        }
        assert_eq!(seen.len(), 25);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn missing_array_panics() {
        NodeMemory::new().array("NOPE");
    }

    #[test]
    fn scalars() {
        let mut m = NodeMemory::new();
        m.set_scalar("N", Value::Int(100));
        assert_eq!(m.scalar("N"), Value::Int(100));
        assert_eq!(m.scalar_opt("M"), None);
    }

    #[test]
    fn lazy_segment_reads_zero_until_first_write() {
        let mut a = LocalArray::with_ghost_lazy(ElemType::Real, &[4], &[1], &[1]);
        assert!(!a.is_materialized());
        assert_eq!(a.data().len(), 0, "no buffer before the first write");
        // Reads (interior and ghost) see zeros without allocating.
        assert_eq!(a.get(&[-1]), Value::Real(0.0));
        assert_eq!(a.get(&[3]), Value::Real(0.0));
        assert_eq!(a.get_flat(5), Value::Real(0.0));
        assert!(!a.is_materialized());
        // First write allocates the full padded buffer; offsets agree
        // with the eager layout.
        a.set(&[2], Value::Real(7.0));
        assert!(a.is_materialized());
        assert_eq!(a.data().len(), 6);
        assert_eq!(a.get(&[2]), Value::Real(7.0));
        assert_eq!(a.get(&[-1]), Value::Real(0.0));
    }

    #[test]
    fn lazy_and_eager_segments_are_observationally_equal() {
        let lazy = LocalArray::with_ghost_lazy(ElemType::Int, &[3, 3], &[1, 0], &[0, 1]);
        let eager = LocalArray::with_ghost(ElemType::Int, &[3, 3], &[1, 0], &[0, 1]);
        assert_eq!(lazy, eager);
        assert_eq!(eager, lazy);
        // A written element breaks equality in either direction.
        let mut written = lazy.clone();
        written.set(&[0, 0], Value::Int(1));
        assert_ne!(written, eager);
        assert_ne!(eager, written);
        // …and writing the same value through the eager twin restores it.
        let mut eager = eager;
        eager.set(&[0, 0], Value::Int(1));
        assert_eq!(written, eager);
    }

    #[test]
    fn data_mut_materializes_for_raw_views() {
        let mut a = LocalArray::with_ghost_lazy(ElemType::Real, &[2], &[0], &[0]);
        assert_eq!(a.data().len(), 0);
        assert_eq!(a.data_mut().len(), 2);
        assert!(a.is_materialized());
        // Explicit materialize is idempotent and keeps contents.
        a.set(&[1], Value::Real(3.0));
        a.materialize();
        assert_eq!(a.get(&[1]), Value::Real(3.0));
    }

    const ALL_TYPES: [ElemType; 4] = [
        ElemType::Int,
        ElemType::Real,
        ElemType::Bool,
        ElemType::Complex,
    ];

    /// A distinct value of type `ty` for flat position `k`.
    fn sample(ty: ElemType, k: usize) -> Value {
        match ty {
            ElemType::Int => Value::Int(3 * k as i64 - 7),
            ElemType::Real => Value::Real(k as f64 * 0.5 - 2.0),
            ElemType::Bool => Value::Bool(k % 3 == 1),
            ElemType::Complex => Value::Complex(k as f64, -(k as f64) / 4.0),
        }
    }

    /// A 4×5 segment with ghosts (padded 6×8 = 48), every padded cell
    /// holding `sample(ty, offset)`.
    fn filled(ty: ElemType) -> LocalArray {
        let mut a = LocalArray::with_ghost(ty, &[4, 5], &[1, 2], &[1, 1]);
        for k in 0..48 {
            a.set_flat(k, sample(ty, k));
        }
        a
    }

    /// Strided, reversed, repeated and ghost-touching offset lists.
    fn offset_lists() -> Vec<Vec<usize>> {
        vec![
            vec![],
            vec![17],
            (0..48).collect(),
            (3..48).step_by(7).collect(),
            (0..48).rev().step_by(5).collect(),
            vec![9, 9, 9, 2, 47, 2, 0],
        ]
    }

    /// The oracle both fast paths replaced: one `Value` per element.
    fn gather_oracle(a: &LocalArray, offsets: &[usize]) -> ArrayData {
        let mut out = ArrayData::zeros(a.elem_type(), offsets.len());
        for (k, &o) in offsets.iter().enumerate() {
            out.set(k, a.get_flat(o));
        }
        out
    }

    fn scatter_oracle(a: &mut LocalArray, offsets: &[usize], data: &ArrayData) {
        for (k, &o) in offsets.iter().enumerate() {
            a.set_flat(o, data.get(k));
        }
    }

    #[test]
    fn gather_flat_matches_the_per_element_loop() {
        for ty in ALL_TYPES {
            let a = filled(ty);
            let lazy = LocalArray::with_ghost_lazy(ty, &[4, 5], &[1, 2], &[1, 1]);
            for offs in offset_lists() {
                assert_eq!(
                    a.gather_flat(offs.iter().copied()),
                    gather_oracle(&a, &offs),
                    "{ty:?} {offs:?}"
                );
                // An unmaterialized source packs zeros and stays lazy.
                assert_eq!(
                    lazy.gather_flat(offs.iter().copied()),
                    ArrayData::zeros(ty, offs.len())
                );
                assert!(!lazy.is_materialized());
                // Appending keeps what the payload already holds.
                let mut out = a.gather_flat([1usize, 2]);
                a.gather_flat_into(offs.iter().copied(), &mut out);
                let mut both = vec![1, 2];
                both.extend(&offs);
                assert_eq!(out, gather_oracle(&a, &both));
            }
        }
    }

    #[test]
    fn scatter_flat_matches_the_per_element_loop() {
        for ty in ALL_TYPES {
            for offs in offset_lists() {
                let mut data = ArrayData::zeros(ty, offs.len());
                for k in 0..offs.len() {
                    data.set(k, sample(ty, 100 + k));
                }
                for lazy in [false, true] {
                    let mk = || {
                        if lazy {
                            LocalArray::with_ghost_lazy(ty, &[4, 5], &[1, 2], &[1, 1])
                        } else {
                            filled(ty)
                        }
                    };
                    let (mut fast, mut slow) = (mk(), mk());
                    fast.scatter_flat(offs.iter().copied(), &data);
                    scatter_oracle(&mut slow, &offs, &data);
                    assert_eq!(fast, slow, "{ty:?} lazy={lazy} {offs:?}");
                    // Writing nothing allocates nothing.
                    assert_eq!(fast.is_materialized(), !(lazy && offs.is_empty()));
                }
                // The same strip from position 3 of a longer payload.
                let mut long = ArrayData::zeros(ty, 3);
                filled(ty).gather_flat_into(0..offs.len(), &mut long);
                let strip = filled(ty).gather_flat(0..offs.len());
                let (mut fast, mut slow) = (filled(ty), filled(ty));
                let end = fast.scatter_flat_from(offs.iter().copied(), &long, 3);
                assert_eq!(end, 3 + offs.len());
                scatter_oracle(&mut slow, &offs, &strip);
                assert_eq!(fast, slow, "{ty:?} strip {offs:?}");
            }
        }
    }

    #[test]
    fn scatter_flat_converts_a_payload_of_another_type() {
        // INTEGER payload into a REAL destination (and back), by the
        // Fortran assignment rules `set(get)` applies.
        let offs = [5usize, 0, 13];
        let ints = ArrayData::Int(vec![4, -2, 9]);
        let (mut fast, mut slow) = (filled(ElemType::Real), filled(ElemType::Real));
        fast.scatter_flat(offs, &ints);
        scatter_oracle(&mut slow, &offs, &ints);
        assert_eq!(fast, slow);
        assert_eq!(fast.get_flat(0), Value::Real(-2.0));
        let reals = ArrayData::Real(vec![2.9, -0.5, 1e3]);
        let (mut fast, mut slow) = (filled(ElemType::Int), filled(ElemType::Int));
        fast.scatter_flat(offs, &reals);
        scatter_oracle(&mut slow, &offs, &reals);
        assert_eq!(fast, slow);
        assert_eq!(fast.get_flat(5), Value::Int(2));
    }

    #[test]
    #[should_panic(expected = "payload longer than its offset list")]
    fn scatter_flat_rejects_a_long_payload() {
        filled(ElemType::Real).scatter_flat([1usize, 2], &ArrayData::Real(vec![0.0; 3]));
    }

    #[test]
    #[should_panic]
    fn scatter_flat_rejects_a_short_payload() {
        filled(ElemType::Real).scatter_flat([1usize, 2, 3], &ArrayData::Real(vec![0.0; 2]));
    }

    #[test]
    #[should_panic]
    fn gather_flat_bounds_checks_a_lazy_source() {
        LocalArray::with_ghost_lazy(ElemType::Real, &[4], &[0], &[0]).gather_flat([4usize]);
    }

    #[test]
    #[should_panic(expected = "payload")]
    fn gather_flat_into_rejects_a_payload_of_another_type() {
        let mut out = ArrayData::zeros(ElemType::Int, 0);
        filled(ElemType::Real).gather_flat_into([0usize], &mut out);
    }

    #[test]
    fn empty_segment_counts_as_materialized() {
        // A rank that owns nothing of a distributed array allocates
        // nothing either way.
        let a = LocalArray::with_ghost_lazy(ElemType::Real, &[0, 4], &[0, 0], &[0, 0]);
        assert!(a.is_materialized());
        assert_eq!(a.interior_len(), 0);
    }

    #[test]
    fn shared_consts_visible_through_scalar_reads() {
        use std::sync::Arc;
        let table: HashMap<String, Value> =
            [("N".to_string(), Value::Int(1024))].into_iter().collect();
        let table = Arc::new(table);
        let mut m = NodeMemory::new();
        m.install_consts(Arc::clone(&table));
        assert_eq!(m.scalar("N"), Value::Int(1024));
        assert_eq!(m.scalar_opt("N"), Some(Value::Int(1024)));
        // Local writes shadow the shared value without mutating it.
        m.set_scalar("N", Value::Int(7));
        assert_eq!(m.scalar("N"), Value::Int(7));
        assert_eq!(table["N"], Value::Int(1024));
        // clear() drops the shared reference too.
        m.clear();
        assert_eq!(m.scalar_opt("N"), None);
        assert_eq!(Arc::strong_count(&table), 1);
    }
}
