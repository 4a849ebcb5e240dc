//! Heap allocations on the matcher's and the instantiation's hot paths,
//! counted by a global allocator. Only the calling thread's allocations
//! count, so tests running beside these ones cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

use denali_egraph::{candidates, ematch_classes_with, EGraph, Subst};
use denali_term::{sexpr, Symbol, Term};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // Never fails: the counter has no destructor, so it lives as long
    // as its thread.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn t(s: &str, vars: &[Symbol]) -> Term {
    Term::from_sexpr(&sexpr::parse_one(s).unwrap(), vars).unwrap()
}

/// Allocations made while streaming the matches of `(f a)` over `n`
/// classes `(f xi)`, each with exactly one match.
fn streaming_allocations(n: usize) -> usize {
    let mut eg = EGraph::new();
    for i in 0..n {
        eg.add_term(&t(&format!("(f x{i})"), &[])).unwrap();
    }
    let vars = [Symbol::intern("a")];
    let pattern = t("(f a)", &vars);
    let cands = candidates(&eg, &pattern);
    assert_eq!(cands.len(), n);
    let mut matches = 0;
    let spent = allocations(|| {
        let _ = ematch_classes_with(&eg, &pattern, &vars, &cands, |_, _| {
            matches += 1;
            ControlFlow::Continue(())
        });
    });
    assert_eq!(matches, n);
    spent
}

#[test]
fn streaming_matches_allocates_per_call_not_per_class() {
    let few = streaming_allocations(100);
    let many = streaming_allocations(10_000);
    assert!(
        many <= few + 24,
        "10,000 classes: {many} allocations; 100 classes: {few}"
    );
}

#[test]
fn instantiating_a_term_that_exists_allocates_nothing() {
    let mut eg = EGraph::new();
    let existing = eg.add_term(&t("(f (g x 4) (h y))", &[])).unwrap();
    let x = eg.add_term(&t("x", &[])).unwrap();
    let y = eg.add_term(&t("y", &[])).unwrap();
    let vars = [Symbol::intern("b"), Symbol::intern("a")];
    let pattern = t("(f (g a 4) (h b))", &vars);
    let mut subst = Subst::new();
    subst.insert(0, y);
    subst.insert(1, x);
    let mut class = None;
    let spent = allocations(|| class = Some(eg.add_instantiation(&pattern, &vars, &subst)));
    assert_eq!(class.unwrap().unwrap(), eg.find(existing));
    assert_eq!(spent, 0);
}
