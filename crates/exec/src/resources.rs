//! Stateful resources: variables, stacks, and TensorArrays.

use crate::rendezvous::StepId;
use crate::token::Token;
use dcf_device::Event;
use dcf_sync::Mutex;
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a saved stack slot currently resides (§5.3 memory swapping).
#[derive(Clone)]
pub(crate) enum StackSlot {
    /// Resident in device memory; the token's charge holds the bytes.
    Device(Token),
    /// Swapped out to host memory. `d2h_done` is the copy kernel's
    /// completion event — a swap-in must wait for it.
    Host {
        /// The saved value (host-resident, no device charge).
        value: Tensor,
        /// Completion of the device-to-host copy.
        d2h_done: Event,
        /// Whether the token was dead (preserved across the swap).
        is_dead: bool,
    },
}

/// Callback invoked when a waited-on slot is filled.
pub(crate) type SlotWaiter = Box<dyn FnOnce(StackSlot) + Send>;

/// A slot is either filled or has pops waiting on it.
///
/// Gradient-loop pops can race ahead of forward pushes (the gradient loop
/// starts as soon as the loop exits fire, while inner iterations may still
/// be completing asynchronously); a pop of a not-yet-filled slot therefore
/// *waits*, exactly like a Recv at the rendezvous. This is the §5.1
/// ordering requirement between stack operations, expressed in dataflow
/// form. Slots are read non-destructively.
pub(crate) enum SlotEntry {
    /// The push happened; pops read (and clone) the slot.
    Ready(StackSlot),
    /// Pops arrived first and are parked here.
    Waiting(Vec<SlotWaiter>),
}

pub(crate) struct StackRes {
    /// Step that created the stack; teardown drops only its own resources.
    pub owner: StepId,
    pub swap: bool,
    pub slots: HashMap<i64, SlotEntry>,
}

pub(crate) struct ArrayRes {
    /// Step that created the array; teardown drops only its own resources.
    pub owner: StepId,
    pub dtype: DType,
    pub accumulate: bool,
    pub elems: Vec<Option<Token>>,
    /// For gradient arrays: the forward array supplying element shapes for
    /// never-written locations.
    pub source: Option<u64>,
}

/// Per-stream recurrent state for streaming inference: a set of named
/// cells (e.g. an RNN's `h`/`c`), each stored as a `[1, dims…]` row so a
/// batch of streams reads as one `concat0` and writes as one `split0`.
pub(crate) struct StreamRes {
    pub cells: HashMap<String, Tensor>,
}

/// Holds all stateful resources of a session: variables persist across
/// `run` calls; stacks and TensorArrays are per-run transients owned by
/// the step that created them.
///
/// One manager is shared by every device executor in a session, making
/// resource handles globally addressable (handles are `i64` scalars minted
/// here). Handles are never reused, so concurrent steps cannot collide on
/// one; the owner step id exists solely so teardown
/// ([`ResourceManager::drop_step_transients`]) can drop exactly the
/// finishing step's state while other steps are mid-flight.
#[derive(Default)]
pub struct ResourceManager {
    vars: Mutex<HashMap<String, Tensor>>,
    pub(crate) stacks: Mutex<HashMap<u64, StackRes>>,
    pub(crate) arrays: Mutex<HashMap<u64, ArrayRes>>,
    grad_map: Mutex<HashMap<(u64, String), u64>>,
    pub(crate) streams: Mutex<HashMap<u64, StreamRes>>,
    next_id: AtomicU64,
}

impl ResourceManager {
    /// Creates an empty manager.
    pub fn new() -> Arc<ResourceManager> {
        Arc::new(ResourceManager::default())
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    // ------------------------------------------------------------------
    // Variables
    // ------------------------------------------------------------------

    /// Reads a variable, installing `init` on first access.
    pub fn variable_read(&self, name: &str, init: &Tensor) -> Tensor {
        self.vars.lock().entry(name.to_owned()).or_insert_with(|| init.clone()).clone()
    }

    /// Overwrites a variable; creates it if missing.
    pub fn assign(&self, name: &str, value: Tensor) -> Tensor {
        self.vars.lock().insert(name.to_owned(), value.clone());
        value
    }

    /// Adds `delta` to a variable, returning the new value.
    pub fn assign_add(&self, name: &str, delta: &Tensor) -> Result<Tensor, String> {
        let mut vars = self.vars.lock();
        let cur =
            vars.get(name).ok_or_else(|| format!("assign_add to uninitialized variable {name}"))?;
        let new = cur.add(delta).map_err(|e| e.to_string())?;
        vars.insert(name.to_owned(), new.clone());
        Ok(new)
    }

    /// Subtracts `delta` from a variable, returning the new value.
    pub fn assign_sub(&self, name: &str, delta: &Tensor) -> Result<Tensor, String> {
        let mut vars = self.vars.lock();
        let cur =
            vars.get(name).ok_or_else(|| format!("assign_sub to uninitialized variable {name}"))?;
        let new = cur.sub(delta).map_err(|e| e.to_string())?;
        vars.insert(name.to_owned(), new.clone());
        Ok(new)
    }

    /// Returns a variable's current value, if initialized.
    pub fn variable_value(&self, name: &str) -> Option<Tensor> {
        self.vars.lock().get(name).cloned()
    }

    // ------------------------------------------------------------------
    // Stacks (§5.1 state saving)
    // ------------------------------------------------------------------

    /// Creates a stack owned by `step`; returns its handle.
    pub fn stack_create(&self, step: StepId, swap: bool) -> u64 {
        let id = self.fresh_id();
        self.stacks.lock().insert(id, StackRes { owner: step, swap, slots: HashMap::new() });
        id
    }

    // ------------------------------------------------------------------
    // TensorArrays (§5.2)
    // ------------------------------------------------------------------

    /// Creates a TensorArray owned by `step` with `size` (possibly 0)
    /// initial slots.
    pub fn array_create(&self, step: StepId, dtype: DType, accumulate: bool, size: usize) -> u64 {
        let id = self.fresh_id();
        self.arrays.lock().insert(
            id,
            ArrayRes { owner: step, dtype, accumulate, elems: vec![None; size], source: None },
        );
        id
    }

    /// Writes `token` at `index`, enforcing write-once semantics for
    /// forward arrays and accumulating for gradient arrays.
    pub fn array_write(&self, id: u64, index: i64, token: Token) -> Result<(), String> {
        let mut arrays = self.arrays.lock();
        let arr = arrays.get_mut(&id).ok_or_else(|| format!("no TensorArray {id}"))?;
        if index < 0 {
            return Err(format!("TensorArray write at negative index {index}"));
        }
        let i = index as usize;
        if i >= arr.elems.len() {
            arr.elems.resize(i + 1, None);
        }
        match (&arr.elems[i], arr.accumulate) {
            (Some(old), true) => {
                let sum = old.value.add(&token.value).map_err(|e| e.to_string())?;
                arr.elems[i] = Some(Token { charge: token.charge, ..Token::live(sum) });
            }
            (Some(_), false) => {
                return Err(format!(
                    "TensorArray {id} location {i} written twice (write-once in forward arrays)"
                ));
            }
            (None, _) => arr.elems[i] = Some(token),
        }
        Ok(())
    }

    /// Reads the element at `index`.
    ///
    /// For gradient arrays, a never-written location reads as zeros shaped
    /// like the corresponding forward element (that forward value received
    /// no gradient).
    pub fn array_read(&self, id: u64, index: i64) -> Result<Tensor, String> {
        let arrays = self.arrays.lock();
        let arr = arrays.get(&id).ok_or_else(|| format!("no TensorArray {id}"))?;
        if index < 0 || index as usize >= arr.elems.len() {
            return Err(format!(
                "TensorArray {id} read at {index} out of range (len {})",
                arr.elems.len()
            ));
        }
        if let Some(t) = &arr.elems[index as usize] {
            return Ok(t.value.clone());
        }
        if let Some(src) = arr.source {
            if let Some(srcarr) = arrays.get(&src) {
                if let Some(Some(fwd)) = srcarr.elems.get(index as usize) {
                    return Ok(Tensor::zeros(fwd.value.dtype(), fwd.value.shape().dims()));
                }
            }
        }
        Err(format!("TensorArray {id} read of unwritten location {index}"))
    }

    /// Stacks all elements into one tensor.
    ///
    /// Packing copies the elements into one contiguous buffer, so the
    /// per-element device charges are released (the values stay readable
    /// for gradient shape fallbacks).
    pub fn array_pack(&self, id: u64) -> Result<Tensor, String> {
        let mut arrays = self.arrays.lock();
        let arr = arrays.get_mut(&id).ok_or_else(|| format!("no TensorArray {id}"))?;
        let mut elems = Vec::with_capacity(arr.elems.len());
        for (i, e) in arr.elems.iter().enumerate() {
            match e {
                Some(t) => elems.push(t.value.clone()),
                None => return Err(format!("TensorArray {id} pack with hole at {i}")),
            }
        }
        for e in arr.elems.iter_mut().flatten() {
            e.charge = None;
        }
        if elems.is_empty() {
            return Ok(Tensor::zeros(arr.dtype, &[0]));
        }
        Tensor::stack(&elems).map_err(|e| e.to_string())
    }

    /// Replaces the array contents with the leading-axis slices of `value`.
    pub fn array_unpack(
        &self,
        id: u64,
        value: &Tensor,
        charge: Option<Arc<crate::token::Charge>>,
    ) -> Result<(), String> {
        let rows = value.unstack().map_err(|e| e.to_string())?;
        let mut arrays = self.arrays.lock();
        let arr = arrays.get_mut(&id).ok_or_else(|| format!("no TensorArray {id}"))?;
        arr.elems = rows
            .into_iter()
            .map(|v| Some(Token { charge: charge.clone(), ..Token::live(v) }))
            .collect();
        Ok(())
    }

    /// Number of elements.
    pub fn array_size(&self, id: u64) -> Result<i64, String> {
        let arrays = self.arrays.lock();
        let arr = arrays.get(&id).ok_or_else(|| format!("no TensorArray {id}"))?;
        Ok(arr.elems.len() as i64)
    }

    /// Looks up or creates the gradient array for `(id, source)` (§5.2).
    ///
    /// The gradient array has the same length as the forward array,
    /// accumulates writes, and falls back to the forward array for element
    /// shapes.
    pub fn array_grad(&self, id: u64, source: &str) -> Result<u64, String> {
        let mut grad_map = self.grad_map.lock();
        if let Some(&g) = grad_map.get(&(id, source.to_owned())) {
            return Ok(g);
        }
        let mut arrays = self.arrays.lock();
        let (owner, dtype, len) = {
            let arr = arrays.get(&id).ok_or_else(|| format!("no TensorArray {id}"))?;
            (arr.owner, arr.dtype, arr.elems.len())
        };
        let gid = self.fresh_id();
        // The gradient array belongs to the same step as its forward array,
        // so one step's teardown releases the pair together.
        arrays.insert(
            gid,
            ArrayRes { owner, dtype, accumulate: true, elems: vec![None; len], source: Some(id) },
        );
        grad_map.insert((id, source.to_owned()), gid);
        Ok(gid)
    }

    // ------------------------------------------------------------------
    // Stream state slots (serving-tier recurrent state)
    // ------------------------------------------------------------------

    /// Mints a stream state slot and returns its handle.
    ///
    /// Handles come from the same never-reused counter as stack and array
    /// handles — the `StepId`-style ownership discipline: once a stream is
    /// dropped its id can never be minted again, so a stale slot index from
    /// a retired stream can only error, never alias a newer stream's state.
    pub fn stream_create(&self) -> u64 {
        let id = self.fresh_id();
        self.streams.lock().insert(id, StreamRes { cells: HashMap::new() });
        id
    }

    /// Installs (or overwrites) the state cell `cell` of stream `id`.
    ///
    /// The value must be a `[1, dims…]` row — one stream's worth of state —
    /// so batched reads are a plain row concatenation.
    pub fn stream_init_cell(&self, id: u64, cell: &str, value: Tensor) -> Result<(), String> {
        let dims = value.shape().dims().to_vec();
        if dims.first() != Some(&1) {
            return Err(format!("stream state cell '{cell}' must be a [1, ...] row, got {dims:?}"));
        }
        let mut streams = self.streams.lock();
        let s = streams.get_mut(&id).ok_or_else(|| format!("no stream slot {id}"))?;
        s.cells.insert(cell.to_owned(), value);
        Ok(())
    }

    /// Reads cell `cell` of each stream in `slots`, stacked into a
    /// `[len(slots), dims…]` batch (row order follows `slots`).
    pub fn stream_read_rows(&self, cell: &str, slots: &[i64]) -> Result<Tensor, String> {
        if slots.is_empty() {
            return Err(format!("stream state read of cell '{cell}' with zero slots"));
        }
        let streams = self.streams.lock();
        let mut rows = Vec::with_capacity(slots.len());
        for &slot in slots {
            let s = streams
                .get(&(slot as u64))
                .ok_or_else(|| format!("no stream slot {slot} (stream closed?)"))?;
            let row = s
                .cells
                .get(cell)
                .ok_or_else(|| format!("stream {slot} has no state cell '{cell}'"))?;
            rows.push(row.clone());
        }
        Tensor::concat0(&rows).map_err(|e| e.to_string())
    }

    /// Scatters the rows of `value` (`[len(slots), dims…]`) back into cell
    /// `cell` of each stream in `slots`.
    pub fn stream_write_rows(
        &self,
        cell: &str,
        slots: &[i64],
        value: &Tensor,
    ) -> Result<(), String> {
        if slots.is_empty() {
            return Err(format!("stream state write of cell '{cell}' with zero slots"));
        }
        if value.shape().dims().first() != Some(&slots.len()) {
            return Err(format!(
                "stream state write of cell '{cell}': value has {:?} rows, expected {}",
                value.shape().dims().first(),
                slots.len()
            ));
        }
        let rows = value.split0(&vec![1; slots.len()]).map_err(|e| e.to_string())?;
        let mut streams = self.streams.lock();
        // Validate every slot before the first write so a bad batch does
        // not leave a prefix of streams updated and the rest stale.
        for &slot in slots {
            if !streams.contains_key(&(slot as u64)) {
                return Err(format!("no stream slot {slot} (stream closed?)"));
            }
        }
        for (&slot, row) in slots.iter().zip(rows) {
            let s = streams.get_mut(&(slot as u64)).expect("slot validated above");
            s.cells.insert(cell.to_owned(), row);
        }
        Ok(())
    }

    /// Drops a stream state slot; subsequent reads/writes against it fail.
    /// Returns `false` if the slot was already gone.
    pub fn stream_drop(&self, id: u64) -> bool {
        self.streams.lock().remove(&id).is_some()
    }

    /// Number of live stream state slots.
    pub fn stream_count(&self) -> usize {
        self.streams.lock().len()
    }

    /// Drops the per-run transients (stacks, arrays, gradient-array
    /// mappings) owned by `step`; variables and other steps' transients
    /// persist.
    pub fn drop_step_transients(&self, step: StepId) {
        self.stacks.lock().retain(|_, s| s.owner != step);
        // Lock order: grad_map before arrays, matching `array_grad` — the
        // reverse order deadlocks (ABBA) against a concurrent gradient
        // lookup that holds grad_map while it waits for arrays.
        let mut grad_map = self.grad_map.lock();
        let mut arrays = self.arrays.lock();
        arrays.retain(|_, a| a.owner != step);
        // Gradient-map entries are keyed by forward handle; an entry whose
        // forward array is gone can never be looked up again, so purge it.
        grad_map.retain(|(fwd, _), _| arrays.contains_key(fwd));
    }

    /// Number of live transient resources (stacks + arrays) owned by
    /// `step`. Zero after [`ResourceManager::drop_step_transients`]; a
    /// non-zero count for an ended step indicates a teardown leak.
    pub fn step_transients(&self, step: StepId) -> usize {
        self.stacks.lock().values().filter(|s| s.owner == step).count()
            + self.arrays.lock().values().filter(|a| a.owner == step).count()
    }

    /// Total live transient resources (stacks + arrays) across every step.
    /// Zero whenever no run is in flight.
    pub fn transient_count(&self) -> usize {
        self.stacks.lock().len() + self.arrays.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_persist_and_update() {
        let rm = ResourceManager::new();
        let v = rm.variable_read("w", &Tensor::scalar_f32(1.0));
        assert_eq!(v.scalar_as_f32().unwrap(), 1.0);
        // Init only applies once.
        let v = rm.variable_read("w", &Tensor::scalar_f32(9.0));
        assert_eq!(v.scalar_as_f32().unwrap(), 1.0);
        rm.assign_add("w", &Tensor::scalar_f32(2.0)).unwrap();
        assert_eq!(rm.variable_value("w").unwrap().scalar_as_f32().unwrap(), 3.0);
        rm.assign_sub("w", &Tensor::scalar_f32(1.0)).unwrap();
        assert_eq!(rm.variable_value("w").unwrap().scalar_as_f32().unwrap(), 2.0);
        assert!(rm.assign_add("missing", &Tensor::scalar_f32(0.0)).is_err());
    }

    #[test]
    fn array_write_once_enforced() {
        let rm = ResourceManager::new();
        let id = rm.array_create(1, DType::F32, false, 2);
        rm.array_write(id, 0, Token::live(Tensor::scalar_f32(1.0))).unwrap();
        assert!(rm.array_write(id, 0, Token::live(Tensor::scalar_f32(2.0))).is_err());
        assert!(rm.array_write(id, -1, Token::live(Tensor::scalar_f32(2.0))).is_err());
        // Arrays grow on demand.
        rm.array_write(id, 5, Token::live(Tensor::scalar_f32(9.0))).unwrap();
        assert_eq!(rm.array_size(id).unwrap(), 6);
    }

    #[test]
    fn gradient_arrays_accumulate() {
        let rm = ResourceManager::new();
        let fwd = rm.array_create(1, DType::F32, false, 2);
        rm.array_write(fwd, 0, Token::live(Tensor::ones(&[2]))).unwrap();
        rm.array_write(fwd, 1, Token::live(Tensor::ones(&[2]))).unwrap();
        let g = rm.array_grad(fwd, "grad").unwrap();
        // Same handle on repeat lookup.
        assert_eq!(rm.array_grad(fwd, "grad").unwrap(), g);
        // Different source gives a different array.
        assert_ne!(rm.array_grad(fwd, "grad2").unwrap(), g);
        rm.array_write(g, 0, Token::live(Tensor::ones(&[2]))).unwrap();
        rm.array_write(g, 0, Token::live(Tensor::ones(&[2]))).unwrap();
        assert_eq!(rm.array_read(g, 0).unwrap().as_f32_slice().unwrap(), &[2.0, 2.0]);
        // Unwritten grad location reads as zeros shaped like the forward.
        assert_eq!(rm.array_read(g, 1).unwrap().as_f32_slice().unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let rm = ResourceManager::new();
        let id = rm.array_create(1, DType::F32, false, 0);
        let x = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        rm.array_unpack(id, &x, None).unwrap();
        assert_eq!(rm.array_size(id).unwrap(), 2);
        let packed = rm.array_pack(id).unwrap();
        assert!(packed.value_eq(&x));
        assert_eq!(rm.array_read(id, 1).unwrap().as_f32_slice().unwrap(), &[3.0, 4.0]);
        assert!(rm.array_read(id, 2).is_err());
    }

    #[test]
    fn pack_reports_holes_and_empty() {
        let rm = ResourceManager::new();
        let id = rm.array_create(1, DType::F32, false, 2);
        rm.array_write(id, 1, Token::live(Tensor::scalar_f32(5.0))).unwrap();
        assert!(rm.array_pack(id).is_err());
        let empty = rm.array_create(1, DType::F32, false, 0);
        assert_eq!(rm.array_pack(empty).unwrap().shape().dims(), &[0]);
    }

    #[test]
    fn step_teardown_keeps_variables_and_other_steps() {
        let rm = ResourceManager::new();
        rm.assign("w", Tensor::scalar_f32(5.0));
        let sid1 = rm.stack_create(1, false);
        let aid1 = rm.array_create(1, DType::F32, false, 1);
        let sid2 = rm.stack_create(2, false);
        let aid2 = rm.array_create(2, DType::F32, false, 1);
        assert_eq!(rm.step_transients(1), 2);
        assert_eq!(rm.step_transients(2), 2);
        rm.drop_step_transients(1);
        // Variables and step 2's transients survive step 1's teardown.
        assert!(rm.variable_value("w").is_some());
        assert!(rm.array_size(aid1).is_err());
        assert!(!rm.stacks.lock().contains_key(&sid1));
        assert_eq!(rm.array_size(aid2).unwrap(), 1);
        assert!(rm.stacks.lock().contains_key(&sid2));
        assert_eq!(rm.step_transients(1), 0);
        assert_eq!(rm.step_transients(2), 2);
    }

    #[test]
    fn stream_slots_gather_scatter_and_drop() {
        let rm = ResourceManager::new();
        let a = rm.stream_create();
        let b = rm.stream_create();
        assert_ne!(a, b);
        assert_eq!(rm.stream_count(), 2);
        rm.stream_init_cell(a, "h", Tensor::from_vec_f32(vec![1.0, 2.0], &[1, 2]).unwrap())
            .unwrap();
        rm.stream_init_cell(b, "h", Tensor::from_vec_f32(vec![3.0, 4.0], &[1, 2]).unwrap())
            .unwrap();
        // Rows must be [1, ...]; a batch is rejected.
        assert!(rm
            .stream_init_cell(a, "h", Tensor::from_vec_f32(vec![0.0; 4], &[2, 2]).unwrap())
            .is_err());
        // Gather follows slot order.
        let g = rm.stream_read_rows("h", &[b as i64, a as i64]).unwrap();
        assert_eq!(g.as_f32_slice().unwrap(), &[3.0, 4.0, 1.0, 2.0]);
        // Scatter updates each stream's row.
        let v = Tensor::from_vec_f32(vec![30.0, 40.0, 10.0, 20.0], &[2, 2]).unwrap();
        rm.stream_write_rows("h", &[b as i64, a as i64], &v).unwrap();
        let ga = rm.stream_read_rows("h", &[a as i64]).unwrap();
        assert_eq!(ga.as_f32_slice().unwrap(), &[10.0, 20.0]);
        // Missing cell and empty slot lists are errors.
        assert!(rm.stream_read_rows("c", &[a as i64]).is_err());
        assert!(rm.stream_read_rows("h", &[]).is_err());
        // Dropped slot errors on read and write; ids are never reused.
        assert!(rm.stream_drop(b));
        assert!(!rm.stream_drop(b));
        assert!(rm.stream_read_rows("h", &[b as i64]).is_err());
        assert!(rm.stream_write_rows("h", &[b as i64], &ga).is_err());
        let c = rm.stream_create();
        assert!(c > b);
        assert_eq!(rm.stream_count(), 2);
    }

    #[test]
    fn stream_write_validates_before_mutating() {
        let rm = ResourceManager::new();
        let a = rm.stream_create();
        rm.stream_init_cell(a, "h", Tensor::from_vec_f32(vec![1.0], &[1, 1]).unwrap()).unwrap();
        let dead = a + 1000;
        let v = Tensor::from_vec_f32(vec![5.0, 6.0], &[2, 1]).unwrap();
        // One dead slot in the batch: nothing is written, including the
        // live stream's row.
        assert!(rm.stream_write_rows("h", &[a as i64, dead as i64], &v).is_err());
        let g = rm.stream_read_rows("h", &[a as i64]).unwrap();
        assert_eq!(g.as_f32_slice().unwrap(), &[1.0]);
        // Row-count mismatch is rejected up front.
        assert!(rm.stream_write_rows("h", &[a as i64], &v).is_err());
    }

    #[test]
    fn gradient_arrays_dropped_with_their_step() {
        let rm = ResourceManager::new();
        let fwd = rm.array_create(7, DType::F32, false, 1);
        rm.array_write(fwd, 0, Token::live(Tensor::ones(&[2]))).unwrap();
        let g = rm.array_grad(fwd, "grad").unwrap();
        rm.drop_step_transients(7);
        assert!(rm.array_size(fwd).is_err());
        assert!(rm.array_size(g).is_err());
        assert!(rm.grad_map.lock().is_empty());
        // A fresh step with a fresh forward array gets a fresh gradient id.
        let fwd2 = rm.array_create(8, DType::F32, false, 1);
        let g2 = rm.array_grad(fwd2, "grad").unwrap();
        assert_ne!(g2, g);
    }
}
