//! Distributed array handles.
//!
//! A [`DistArray`] is the host-side view of one distributed array: its
//! name (keying the per-node [`f90d_machine::NodeMemory`] segments), its
//! [`Dad`] and its element type. All data lives in node memories; the
//! handle only carries the descriptor — mirroring how the paper's
//! generated code passes `(array, DAD)` pairs to run-time primitives.

#[cfg(test)]
use f90d_distrib::ProcGrid;
use f90d_distrib::{row_major_strides, Dad, DadBuilder, DistKind};
use f90d_machine::{ArrayData, ElemType, LocalArray, Machine, Value};

/// Host-side handle to a distributed array.
#[derive(Debug, Clone)]
pub struct DistArray {
    /// Name keying the node-memory segments.
    pub name: String,
    /// The three-stage mapping descriptor.
    pub dad: Dad,
    /// Element type.
    pub ty: ElemType,
}

impl DistArray {
    /// Allocate a distributed array on `m` with the given distribution per
    /// dimension (template = array shape, identity alignment, grid = the
    /// machine's grid) and no ghost cells.
    pub fn create(
        m: &mut Machine,
        name: impl Into<String>,
        ty: ElemType,
        shape: &[i64],
        dist: &[DistKind],
    ) -> Self {
        Self::create_with_ghost(m, name, ty, shape, dist, 0)
    }

    /// Like [`DistArray::create`] with symmetric ghost width `ghost` on
    /// every distributed dimension (for `overlap_shift`).
    pub fn create_with_ghost(
        m: &mut Machine,
        name: impl Into<String>,
        ty: ElemType,
        shape: &[i64],
        dist: &[DistKind],
        ghost: i64,
    ) -> Self {
        let name = name.into();
        let dad = DadBuilder::new(name.clone(), shape)
            .distribute(dist)
            .grid(m.grid.clone())
            .build()
            .expect("valid distribution");
        Self::from_dad(m, name, ty, dad, ghost)
    }

    /// Allocate from an explicit descriptor.
    pub fn from_dad(
        m: &mut Machine,
        name: impl Into<String>,
        ty: ElemType,
        dad: Dad,
        ghost: i64,
    ) -> Self {
        let name = name.into();
        let shape = dad.local_shape();
        let g: Vec<i64> = dad
            .dims
            .iter()
            .map(|d| if d.is_distributed() { ghost } else { 0 })
            .collect();
        for mem in &mut m.mems {
            mem.insert_array(name.clone(), LocalArray::with_ghost(ty, &shape, &g, &g));
        }
        DistArray { name, dad, ty }
    }

    /// Global shape.
    pub fn shape(&self) -> &[i64] {
        &self.dad.shape
    }

    /// Rank.
    pub fn rank(&self) -> usize {
        self.dad.rank()
    }

    /// Total elements.
    pub fn size(&self) -> i64 {
        self.dad.size()
    }

    /// Scatter a host row-major buffer into the node memories. This is an
    /// initialization convenience (the paper's programs read/generate data
    /// on node 0 and scatter); it charges a one-to-all distribution cost.
    pub fn scatter_host(&self, m: &mut Machine, host: &ArrayData) {
        assert_eq!(host.len() as i64, self.size(), "host buffer size mismatch");
        let strides = row_major_strides(self.shape());
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let arr = m.mems[rank as usize].array_mut(&self.name);
            let seg = arr.segment();
            let owned = self.dad.for_each_owned(&coords, &seg, |g, off| {
                arr.set_flat(off, host.get(flatten(g, &strides)))
            });
            // Data volume leaves node 0: charge as P-1 messages of local size.
            if owned > 0 && rank != 0 {
                let bytes = owned as i64 * self.ty.bytes();
                let t = m.spec().msg_time(0, rank, bytes);
                m.transport.charge_compute(0, m.spec().alpha);
                m.transport.charge_compute(rank, t);
            }
        }
    }

    /// Gather the full array to a host row-major buffer (all-to-one,
    /// charged as P-1 messages into node 0).
    pub fn gather_host(&self, m: &mut Machine) -> ArrayData {
        let strides = row_major_strides(self.shape());
        let mut host = ArrayData::zeros(self.ty, self.size() as usize);
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            if self.dad.replicated_axes.iter().any(|&ax| coords[ax] != 0) {
                continue;
            }
            let arr = m.mems[rank as usize].array(&self.name);
            let owned = self.dad.for_each_owned(&coords, &arr.segment(), |g, off| {
                host.set(flatten(g, &strides), arr.get_flat(off))
            });
            if owned > 0 && rank != 0 {
                let bytes = owned as i64 * self.ty.bytes();
                let t = m.spec().msg_time(rank, 0, bytes);
                m.transport.charge_compute(rank, m.spec().alpha);
                m.transport.charge_compute(0, t);
            }
        }
        host
    }

    /// Read one global element (host-side debugging access; does not
    /// charge communication).
    pub fn get_global(&self, m: &Machine, index: &[i64]) -> Value {
        let ranks = self.dad.owner_ranks(index);
        let l = self.dad.local_index(index);
        m.mems[ranks[0] as usize].array(&self.name).get(&l)
    }

    /// Write one global element on every owning node (host-side
    /// initialization access).
    pub fn set_global(&self, m: &mut Machine, index: &[i64], v: Value) {
        for rank in self.dad.owner_ranks(index) {
            let l = self.dad.local_index(index);
            m.mems[rank as usize].array_mut(&self.name).set(&l, v);
        }
    }

    /// Fill every owned element from a host function of the global index.
    pub fn fill_with(&self, m: &mut Machine, f: impl Fn(&[i64]) -> Value) {
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let arr = m.mems[rank as usize].array_mut(&self.name);
            let seg = arr.segment();
            self.dad
                .for_each_owned(&coords, &seg, |g, off| arr.set_flat(off, f(g)));
        }
    }

    /// A DAD identical to this array's but renamed — for temporaries that
    /// share the mapping.
    pub fn like_named(&self, m: &mut Machine, name: impl Into<String>) -> DistArray {
        let name = name.into();
        let mut dad = self.dad.clone();
        dad.name = name.clone();
        DistArray::from_dad(m, name, self.ty, dad, 0)
    }
}

/// Flatten a global index with precomputed strides.
pub fn flatten(idx: &[i64], strides: &[i64]) -> usize {
    idx.iter().zip(strides).map(|(&i, &s)| i * s).sum::<i64>() as usize
}

/// Unflatten a row-major flat index into shape coordinates.
pub fn unflatten(flat: i64, shape: &[i64]) -> Vec<i64> {
    let mut idx = vec![0i64; shape.len()];
    unflatten_into(flat, shape, &mut idx);
    idx
}

/// [`unflatten`] into `idx`, one slot per dimension of `shape`.
pub fn unflatten_into(mut flat: i64, shape: &[i64], idx: &mut [i64]) {
    for d in (0..shape.len()).rev() {
        idx[d] = flat % shape[d];
        flat /= shape[d];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_machine::MachineSpec;

    fn machine(p: i64) -> Machine {
        Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]))
    }

    #[test]
    fn scatter_gather_roundtrip() {
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)] {
            let mut m = machine(4);
            let a = DistArray::create(&mut m, "A", ElemType::Real, &[17], &[kind]);
            let host = ArrayData::Real((0..17).map(|x| x as f64 * 1.5).collect());
            a.scatter_host(&mut m, &host);
            let back = a.gather_host(&mut m);
            assert_eq!(back, host, "{kind:?}");
        }
    }

    #[test]
    fn scatter_gather_2d() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        let a = DistArray::create(
            &mut m,
            "A",
            ElemType::Int,
            &[5, 7],
            &[DistKind::Block, DistKind::Cyclic],
        );
        let host = ArrayData::Int((0..35).collect());
        a.scatter_host(&mut m, &host);
        assert_eq!(a.gather_host(&mut m), host);
        assert_eq!(a.get_global(&m, &[2, 3]), Value::Int(2 * 7 + 3));
    }

    #[test]
    fn set_get_global_replicated() {
        let mut m = machine(3);
        let a = DistArray::create(&mut m, "S", ElemType::Real, &[4], &[DistKind::Collapsed]);
        a.set_global(&mut m, &[2], Value::Real(9.0));
        for rank in 0..3 {
            assert_eq!(
                m.mems[rank as usize].array("S").get(&[2]),
                Value::Real(9.0),
                "replica on rank {rank}"
            );
        }
    }

    #[test]
    fn fill_with_function() {
        let mut m = machine(2);
        let a = DistArray::create(&mut m, "A", ElemType::Int, &[6], &[DistKind::Block]);
        a.fill_with(&mut m, |g| Value::Int(g[0] * g[0]));
        for g in 0..6 {
            assert_eq!(a.get_global(&m, &[g]), Value::Int(g * g));
        }
    }

    #[test]
    fn unflatten_roundtrip() {
        let shape = vec![3, 4, 5];
        let strides = row_major_strides(&shape);
        assert_eq!(strides, vec![20, 5, 1]);
        for flat in 0..60 {
            let idx = unflatten(flat, &shape);
            assert_eq!(flatten(&idx, &strides) as i64, flat);
        }
    }

    #[test]
    fn ghost_allocation_only_on_distributed_dims() {
        let mut m = machine(2);
        let a = DistArray::create_with_ghost(
            &mut m,
            "A",
            ElemType::Real,
            &[8, 4],
            &[DistKind::Block, DistKind::Collapsed],
            2,
        );
        let arr = m.mems[0].array(&a.name);
        assert_eq!(arr.ghost_lo, vec![2, 0]);
        assert_eq!(arr.ghost_hi, vec![2, 0]);
    }
}
