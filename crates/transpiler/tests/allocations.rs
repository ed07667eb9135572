//! Allocation gate for the compile trip's per-gate work.
//!
//! An [`Instruction`](qcs_circuit::Instruction) keeps every operand but a
//! barrier's inline, so parsing QASM, remapping qubits and translating to
//! the basis allocate per circuit (the instruction vector growing by
//! doubling), not per gate. A counting global allocator, counting only the
//! calling thread, holds each step to a logarithmic budget in its
//! instruction count; one heap block per gate overshoots it several times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qcs_circuit::qasm::{from_qasm, to_qasm};
use qcs_circuit::{library, Circuit, Qubit};
use qcs_transpiler::basis::translate_to_basis;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (every allocation
        // here does), as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What a circuit of `instructions` gates may cost: the vector's doublings
/// plus a few fixed blocks (the circuit's name, the result).
fn budget(instructions: usize) -> usize {
    2 * instructions.next_power_of_two().trailing_zeros() as usize + 4
}

#[test]
fn the_compile_trip_allocates_per_circuit_not_per_gate() {
    let qft = library::qft(12);
    assert!(qft.instructions().iter().all(|i| !i.gate.is_directive()));
    let text = to_qasm(&qft);

    let (parsed, parse) = counted(|| from_qasm(&text).expect("to_qasm output parses"));
    let gates = parsed.instructions().len();
    assert!(gates > 64, "{gates} gates");
    assert!(
        parse <= budget(gates),
        "from_qasm: {parse} allocations for {gates} gates"
    );

    let width = parsed.num_qubits();
    let (mapped, remap) = counted(|| parsed.remapped(width, |q| Qubit(width as u32 - 1 - q.0)));
    assert!(
        remap <= budget(gates),
        "map_qubits: {remap} allocations for {gates} gates"
    );

    let (basis, translate): (Circuit, usize) = counted(|| translate_to_basis(&mapped));
    let emitted = basis.instructions().len();
    assert!(emitted > gates);
    assert!(
        translate <= budget(emitted),
        "translate_to_basis: {translate} allocations for {emitted} gates"
    );
}
