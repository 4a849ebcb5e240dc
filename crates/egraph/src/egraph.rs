//! Core E-graph data structure: hashcons, union-find, congruence
//! closure, analyses, distinctions, and clauses.

use std::collections::HashSet;
use std::fmt;

use denali_term::{ops, Op, Symbol, Term};

use crate::ematch::{slot, Subst};
use crate::hash::{SeededMap, SeededSet};

/// Identifier of an equivalence class.
///
/// Class ids are stable names for e-nodes' classes; after unions several
/// ids may denote the same class. Use [`EGraph::find`] to canonicalize.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// Dense index (canonical only after [`EGraph::find`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An e-node: an operator applied to equivalence classes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ENode {
    /// Head operator (symbol or constant; never a pattern variable).
    pub op: Op,
    /// Argument classes.
    pub children: Vec<ClassId>,
}

impl ENode {
    /// Creates an e-node.
    pub fn new(op: Op, children: Vec<ClassId>) -> ENode {
        ENode { op, children }
    }

    /// The head symbol, if the op is a symbol.
    pub fn sym(&self) -> Option<Symbol> {
        self.op.as_sym()
    }
}

/// Identifier of an e-node in the arena.
///
/// Node ids are dense indices into the append-only node arena: the id
/// is assigned at [`EGraph::add_node`] time and never moves or goes
/// away (merged-away duplicates simply stop being referenced by class
/// node lists). Resolve one with [`EGraph::node_op`] /
/// [`EGraph::node_children`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Dense index into the node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an interned child slice in the shared pool.
///
/// Slices are content-addressed: two nodes whose (canonicalized) child
/// lists are identical share one `SliceId`, so slice-id equality is
/// structural equality of child lists. This is what lets the hashcons
/// memo key on the compact `(Op, SliceId)` form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceId(u32);

impl SliceId {
    /// Dense index into the slice pool's span table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// FNV-1a over the raw class ids of a child list, used to bucket the
/// slice pool's dedup index. Collisions are resolved by content
/// comparison, so the hash only needs to be fast and deterministic.
fn hash_children(children: &[ClassId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in children {
        h ^= u64::from(c.0);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Shared, append-only pool of interned child lists. Each distinct
/// (by content) child list is stored once in `data` and named by a
/// `SliceId` indexing the `(offset, len)` span table.
#[derive(Clone, Default, Debug)]
struct SlicePool {
    /// Flat storage for every interned child list, back to back.
    data: Vec<ClassId>,
    /// `(offset, len)` into `data`, indexed by `SliceId`.
    spans: Vec<(u32, u32)>,
    /// Content hash → slice ids with that hash (collision bucket).
    dedup: SeededMap<u64, Vec<SliceId>>,
}

impl SlicePool {
    fn get(&self, id: SliceId) -> &[ClassId] {
        let (off, len) = self.spans[id.index()];
        &self.data[off as usize..off as usize + len as usize]
    }

    /// Read-only content lookup: the id of an already-interned list.
    fn lookup(&self, children: &[ClassId]) -> Option<SliceId> {
        let bucket = self.dedup.get(&hash_children(children))?;
        bucket.iter().copied().find(|&id| self.get(id) == children)
    }

    /// Interns a child list, returning the shared id for its content.
    fn intern(&mut self, children: &[ClassId]) -> SliceId {
        let h = hash_children(children);
        if let Some(bucket) = self.dedup.get(&h) {
            if let Some(&id) = bucket.iter().find(|&&id| self.get(id) == children) {
                return id;
            }
        }
        let off = u32::try_from(self.data.len()).expect("slice pool data overflow");
        let len = u32::try_from(children.len()).expect("child list too long");
        self.data.extend_from_slice(children);
        let id = SliceId(u32::try_from(self.spans.len()).expect("slice pool span overflow"));
        self.spans.push((off, len));
        self.dedup.entry(h).or_default().push(id);
        id
    }
}

/// A literal for recorded clauses: an equality or distinction between
/// classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EqLiteral {
    /// The two classes are equal.
    Eq(ClassId, ClassId),
    /// The two classes are distinct (uncombinable).
    Ne(ClassId, ClassId),
}

/// What kind of failure an [`EGraphError`] reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EGraphErrorKind {
    /// The asserted facts are contradictory (e.g. a union of classes
    /// constrained to be distinct, or two different constants in one
    /// class). In Denali this indicates an unsound axiom set.
    Contradiction,
    /// The class-id budget was exhausted: either the capacity installed
    /// with [`EGraph::set_class_capacity`] or the representation limit
    /// (class ids are `u32`). A pathological input, not a bug — callers
    /// reject the program cleanly instead of panicking.
    TooManyClasses,
    /// A variable table numbers more variables than a [`Subst`] has
    /// slots ([`Subst::CAPACITY`]).
    TooManyVariables,
}

/// Error raised when the asserted facts are contradictory (an unsound
/// axiom set) or a resource budget is exhausted — see
/// [`EGraphErrorKind`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EGraphError {
    message: String,
    kind: EGraphErrorKind,
}

impl EGraphError {
    fn new(message: impl Into<String>) -> EGraphError {
        EGraphError {
            message: message.into(),
            kind: EGraphErrorKind::Contradiction,
        }
    }

    /// Creates an error with a caller-supplied message (used by layers
    /// that wrap e-graph contradictions with more context).
    pub fn from_message(message: impl Into<String>) -> EGraphError {
        EGraphError::new(message)
    }

    /// Creates a [`EGraphErrorKind::TooManyClasses`] error for the
    /// given capacity.
    pub fn too_many_classes(capacity: usize) -> EGraphError {
        EGraphError {
            message: format!("e-graph class budget exhausted ({capacity} classes)"),
            kind: EGraphErrorKind::TooManyClasses,
        }
    }

    /// Creates a [`EGraphErrorKind::TooManyVariables`] error for a
    /// variable table of `count` variables; `owner` names what it
    /// numbers (e.g. an axiom).
    pub fn too_many_variables(owner: &str, count: usize) -> EGraphError {
        EGraphError {
            message: format!(
                "{owner} has {count} variables; a substitution binds at most {}",
                Subst::CAPACITY
            ),
            kind: EGraphErrorKind::TooManyVariables,
        }
    }

    /// Which kind of failure this is.
    pub fn kind(&self) -> EGraphErrorKind {
        self.kind
    }

    /// True if this error reports an exhausted class budget.
    pub fn is_too_many_classes(&self) -> bool {
        self.kind == EGraphErrorKind::TooManyClasses
    }
}

impl fmt::Display for EGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EGraphError {}

#[derive(Clone, Default, Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct EClass {
    /// Arena ids of the e-nodes in this class (first-seen order;
    /// congruent duplicates are dropped by rebuild's dedupe pass).
    nodes: Vec<NodeId>,
    /// Parent arena nodes and the class each parent node belongs(ed)
    /// to. Stored class ids may be stale; readers canonicalize.
    parents: Vec<(NodeId, ClassId)>,
    /// Known constant value of every term in this class.
    constant: Option<u64>,
    /// The e-graph's `const_epoch` when a fold scan of this class last
    /// found no foldable node; 0 when the class is created or gains
    /// nodes (see [`EGraph::try_fold_parent`]).
    fold_miss: u64,
    /// The e-graph's `generation` plus one when congruence repair last
    /// began walking this class's parents; 0 when it never has. While
    /// it equals `generation + 1`, nothing has happened since that walk
    /// began and a new walk would change nothing (see
    /// [`EGraph::repair_dirty`]).
    walked_at: u64,
}

/// Monotone counters over the e-graph's mutating operations, for
/// observability: how much work saturation actually did, round by
/// round. Snapshot with [`EGraph::op_counts`] and subtract snapshots
/// with [`OpCounts::since`] to get per-round deltas.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct OpCounts {
    /// [`EGraph::add_node`] calls (including hashcons hits).
    pub adds: u64,
    /// Adds answered by the hashcons table (no new node).
    pub hits: u64,
    /// Adds that created a new e-node (and class).
    pub new_nodes: u64,
    /// Class merges actually performed (a union of two distinct roots).
    pub unions: u64,
    /// The subset of `unions` performed by congruence repair inside
    /// [`EGraph::rebuild`] (as opposed to asserted by the caller).
    pub congruence_unions: u64,
    /// Classes folded to a constant value after creation.
    pub folds: u64,
    /// [`EGraph::rebuild`] calls.
    pub rebuilds: u64,
    /// Parent-list walks by congruence repair (dirty pops that were not
    /// skipped as unchanged since the class's previous walk).
    pub walks: u64,
    /// Parent entries visited by those walks.
    pub walked_parents: u64,
}

impl OpCounts {
    /// Field-wise difference from an earlier snapshot.
    pub fn since(self, before: OpCounts) -> OpCounts {
        OpCounts {
            adds: self.adds - before.adds,
            hits: self.hits - before.hits,
            new_nodes: self.new_nodes - before.new_nodes,
            unions: self.unions - before.unions,
            congruence_unions: self.congruence_unions - before.congruence_unions,
            folds: self.folds - before.folds,
            rebuilds: self.rebuilds - before.rebuilds,
            walks: self.walks - before.walks,
            walked_parents: self.walked_parents - before.walked_parents,
        }
    }
}

/// Memory accounting for the arena/SoA e-graph storage, from
/// [`EGraph::memory_stats`].
///
/// All byte counts are payload bytes (lengths × element sizes, not
/// allocator capacities), so they are deterministic for a given graph
/// shape and safe to surface in traces.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MemoryStats {
    /// Arena e-nodes (one per canonical node ever created).
    pub nodes: u64,
    /// Live equivalence classes.
    pub classes: u64,
    /// Bytes in the node arena (`Vec<Op>` + `Vec<SliceId>`).
    pub arena_bytes: u64,
    /// Bytes in the interned child-slice pool (flat data + span table).
    pub slice_bytes: u64,
    /// Distinct interned child slices.
    pub slice_entries: u64,
    /// Child-list references into the pool (one per arena node).
    pub slice_refs: u64,
    /// Bytes in per-class node lists and parent indexes.
    pub class_bytes: u64,
    /// Bytes in the hashcons memo (key + value payload).
    pub memo_bytes: u64,
    /// Total payload bytes across arena, pool, classes, and memo.
    pub total_bytes: u64,
    /// Bytes in the dense class table and the union-find array: one
    /// slot of each per class id ever allocated, merged-away ids
    /// included. Not part of `total_bytes`.
    pub class_table_bytes: u64,
}

impl MemoryStats {
    /// Payload bytes per arena node in the current layout.
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.total_bytes as f64 / self.nodes as f64
    }

    /// How much interning shares child lists: slice references per
    /// distinct interned slice (≥ 1; higher is more sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.slice_entries == 0 {
            return 1.0;
        }
        self.slice_refs as f64 / self.slice_entries as f64
    }
}

/// The E-graph. See the [crate docs](crate) for an overview and example.
#[derive(Clone, Default, Debug)]
pub struct EGraph {
    uf: Vec<u32>,
    /// Class table indexed by [`ClassId::index`], grown in lockstep with
    /// `uf`: `Some` for canonical roots, `None` for ids merged away.
    classes: Vec<Option<EClass>>,
    /// Number of `Some` entries in `classes` (the live classes).
    live_classes: usize,
    /// Node arena, structure-of-arrays: `node_ops[i]` and
    /// `node_slices[i]` describe the e-node `NodeId(i)`. Append-only;
    /// `node_slices` entries are re-pointed at canonical slices during
    /// congruence repair (the op never changes).
    node_ops: Vec<Op>,
    node_slices: Vec<SliceId>,
    /// Interned child lists shared by arena nodes and memo keys.
    pool: SlicePool,
    /// Hashcons memo on the compact interned form. Slice interning is
    /// content-addressed, so `(Op, SliceId)` equality is structural
    /// node equality and no owned key is ever built.
    memo: SeededMap<(Op, SliceId), ClassId>,
    /// Scratch buffer reused by canonicalization in `&mut self` paths,
    /// so a hashcons hit allocates nothing.
    scratch: Vec<ClassId>,
    /// Reused stack on which [`EGraph::add_term`] and
    /// [`EGraph::add_instantiation`] build each node's child list, so
    /// adding a term that already exists allocates nothing.
    child_stack: Vec<ClassId>,
    /// Canonical ids of constant classes, for eager folding.
    constants: SeededMap<u64, ClassId>,
    /// Classes whose parents need congruence repair.
    dirty: Vec<ClassId>,
    /// Canonicalized (smaller, larger) root pairs that must never merge.
    uncombinable: SeededSet<(ClassId, ClassId)>,
    /// Recorded clauses awaiting literal deletion / unit assertion.
    clauses: Vec<Vec<EqLiteral>>,
    /// Operator index: symbol → classes that (at insertion time) held a
    /// node with that head. Entries may be stale; readers canonicalize.
    op_index: SeededMap<Symbol, Vec<ClassId>>,
    /// Monotone mutation counter: bumped when a class is created, two
    /// classes merge or a class folds to a constant, so readers can
    /// cheaply detect "something happened since I looked". Congruence
    /// repair's skip (`EClass::walked_at`) relies on it: a change that
    /// can give a repair walk work must move it.
    generation: u64,
    /// Operation counters (always on; a few integer bumps per op).
    counts: OpCounts,
    /// True while [`EGraph::rebuild`] runs, so unions performed during
    /// repair are attributed to congruence in [`OpCounts`].
    repairing: bool,
    /// Maximum number of class ids ever allocated (`0` = unlimited, the
    /// default). Exceeding it turns [`EGraph::add_node`] into a clean
    /// [`EGraphErrorKind::TooManyClasses`] error instead of unbounded
    /// growth.
    class_capacity: usize,
    /// Bumped whenever a node's child can newly read as constant: a
    /// class folds, or a union joins a constant class with one that had
    /// no constant. Until it moves, a fold scan that found nothing in a
    /// class whose node list has not grown would find nothing again.
    /// Starts at 0.
    const_epoch: u64,
}

impl EGraph {
    /// Creates an empty e-graph.
    pub fn new() -> EGraph {
        EGraph::default()
    }

    /// Number of (canonical) e-nodes ever added.
    pub fn num_nodes(&self) -> usize {
        self.node_ops.len()
    }

    /// Caps the number of class ids this e-graph may ever allocate
    /// (`0` = unlimited). Once the cap is reached, [`EGraph::add_node`]
    /// (and everything built on it) fails with a
    /// [`EGraphErrorKind::TooManyClasses`] error rather than growing —
    /// or, at the `u32` representation limit, panicking.
    pub fn set_class_capacity(&mut self, capacity: usize) {
        self.class_capacity = capacity;
    }

    /// Number of live equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.live_classes
    }

    /// The mutation generation: a monotone counter bumped on every
    /// change (class created, classes merged, constant folded). Equal
    /// generations imply the e-graph has not changed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Snapshot of the operation counters (see [`OpCounts`]).
    pub fn op_counts(&self) -> OpCounts {
        self.counts
    }

    /// The class record of a canonical id.
    fn class(&self, root: ClassId) -> &EClass {
        self.classes[root.index()].as_ref().expect("live class")
    }

    fn class_mut(&mut self, root: ClassId) -> &mut EClass {
        self.classes[root.index()].as_mut().expect("live class")
    }

    /// Canonical representative of `id`'s class.
    pub fn find(&self, id: ClassId) -> ClassId {
        let mut i = id.0;
        while self.uf[i as usize] != i {
            i = self.uf[i as usize];
        }
        ClassId(i)
    }

    fn find_compress(&mut self, id: ClassId) -> ClassId {
        let root = self.find(id);
        let mut i = id.0;
        while self.uf[i as usize] != root.0 {
            let next = self.uf[i as usize];
            self.uf[i as usize] = root.0;
            i = next;
        }
        root
    }

    /// Canonicalizes `children` into the shared scratch buffer. The
    /// caller takes ownership of the buffer and must hand it back by
    /// assigning `self.scratch` when done (so the allocation is reused
    /// across calls instead of freed).
    fn canonical_scratch(&mut self, children: &[ClassId]) -> Vec<ClassId> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend(children.iter().map(|&c| self.find(c)));
        buf
    }

    /// Re-canonicalizes an arena node's child slice in place, interning
    /// the canonical content and re-pointing `node_slices[id]` at it.
    /// Returns the canonical slice id.
    fn canonicalize_slice(&mut self, id: NodeId) -> SliceId {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend(
            self.pool
                .get(self.node_slices[id.index()])
                .iter()
                .map(|&c| self.find(c)),
        );
        let slice = self.pool.intern(&buf);
        self.scratch = buf;
        self.node_slices[id.index()] = slice;
        slice
    }

    /// Adds an e-node (children given as classes), returning its class.
    ///
    /// Congruent nodes are hash-consed to the same class. Constant
    /// folding is eager: a node whose children all have known constant
    /// values is unified with the literal constant's class.
    ///
    /// # Errors
    ///
    /// Fails with [`EGraphErrorKind::TooManyClasses`] when allocating a
    /// new class would exceed [`EGraph::set_class_capacity`] (or the
    /// `u32` class-id representation limit). Hashcons hits never fail —
    /// only genuinely new nodes consume capacity.
    pub fn add_node(&mut self, op: Op, children: &[ClassId]) -> Result<ClassId, EGraphError> {
        self.counts.adds += 1;
        let buf = self.canonical_scratch(children);
        // Hit path: slice interning is content-addressed, so if the
        // canonical child list is interned and `(op, slice)` is
        // memoized, the node already exists. Nothing is allocated.
        if let Some(slice) = self.pool.lookup(&buf) {
            if let Some(&existing) = self.memo.get(&(op, slice)) {
                self.counts.hits += 1;
                self.scratch = buf;
                return Ok(self.find(existing));
            }
        }
        if self.class_capacity != 0 && self.uf.len() >= self.class_capacity {
            self.scratch = buf;
            return Err(EGraphError::too_many_classes(self.class_capacity));
        }
        self.counts.new_nodes += 1;
        let id = match u32::try_from(self.uf.len()) {
            Ok(raw) => ClassId(raw),
            Err(_) => {
                self.scratch = buf;
                return Err(EGraphError::too_many_classes(u32::MAX as usize));
            }
        };
        let slice = self.pool.intern(&buf);
        let nid = NodeId(u32::try_from(self.node_ops.len()).expect("arena bounded by class ids"));
        self.node_ops.push(op);
        self.node_slices.push(slice);
        let constant = self.node_constant(op, &buf);
        for &child in &buf {
            self.class_mut(child).parents.push((nid, id));
        }
        self.scratch = buf;
        self.uf.push(id.0);
        self.classes.push(Some(EClass {
            nodes: vec![nid],
            parents: Vec::new(),
            constant,
            fold_miss: 0,
            walked_at: 0,
        }));
        self.live_classes += 1;
        if let Op::Sym(sym) = op {
            self.op_index.entry(sym).or_default().push(id);
        }
        self.memo.insert((op, slice), id);
        self.generation += 1;
        // Register / fold constants.
        if let Some(value) = constant {
            match self.constants.get(&value) {
                None => {
                    self.constants.insert(value, id);
                    // Make sure the literal constant node itself exists so
                    // the class always contains `Const(value)`.
                    if op != Op::Const(value) {
                        let lit = self.add_node(Op::Const(value), &[])?;
                        self.union(lit, id).expect("fresh constant cannot conflict");
                    }
                }
                Some(&existing) => {
                    let existing = self.find(existing);
                    self.union(existing, id)
                        .expect("equal constants cannot conflict");
                }
            }
        }
        Ok(self.find(id))
    }

    /// The value a node evaluates to when every child class has a known
    /// constant. Rejects at the first child without one, so the
    /// argument vector is only built for nodes that can fold.
    fn node_constant(&self, op: Op, children: &[ClassId]) -> Option<u64> {
        match op {
            Op::Const(c) => Some(c),
            Op::Var(_) => None,
            Op::Sym(sym) => {
                if children.is_empty() || children.iter().any(|&c| self.constant(c).is_none()) {
                    return None;
                }
                let args: Vec<u64> = children.iter().filter_map(|&c| self.constant(c)).collect();
                ops::eval(sym, &args)
            }
        }
    }

    /// Adds a ground term, returning its class.
    ///
    /// # Errors
    ///
    /// Fails if the term contains pattern variables.
    pub fn add_term(&mut self, term: &Term) -> Result<ClassId, EGraphError> {
        self.add_with_bindings(term, None)
    }

    /// Instantiates a pattern term: each variable is looked up in
    /// `subst`, slot `i` binding `vars[i]`, and the rest is added.
    ///
    /// # Errors
    ///
    /// Fails if a pattern variable has no slot in `vars` or its slot is
    /// unbound in `subst`.
    pub fn add_instantiation(
        &mut self,
        pattern: &Term,
        vars: &[Symbol],
        subst: &Subst,
    ) -> Result<ClassId, EGraphError> {
        self.add_with_bindings(pattern, Some((vars, subst)))
    }

    /// Adds `term`, its variables bound by `bindings` (none for a
    /// ground term), building child lists on the reused child stack.
    fn add_with_bindings(
        &mut self,
        term: &Term,
        bindings: Option<(&[Symbol], &Subst)>,
    ) -> Result<ClassId, EGraphError> {
        let mut stack = std::mem::take(&mut self.child_stack);
        stack.clear();
        let class = self.add_with_bindings_on(term, bindings, &mut stack);
        self.child_stack = stack;
        class
    }

    /// Adds `term` bottom up. Each node pushes its children's classes on
    /// `stack`, adds itself from that slice, and pops them again.
    fn add_with_bindings_on(
        &mut self,
        term: &Term,
        bindings: Option<(&[Symbol], &Subst)>,
        stack: &mut Vec<ClassId>,
    ) -> Result<ClassId, EGraphError> {
        match (term.op(), bindings) {
            (Op::Var(v), None) => Err(EGraphError::new(format!(
                "cannot add pattern variable ?{v} to the e-graph"
            ))),
            (Op::Var(v), Some((vars, subst))) => slot(vars, v)
                .and_then(|i| subst.get(i))
                .map(|c| self.find(c))
                .ok_or_else(|| EGraphError::new(format!("unbound pattern variable ?{v}"))),
            (op, _) => {
                let base = stack.len();
                for arg in term.args() {
                    let child = self.add_with_bindings_on(arg, bindings, stack)?;
                    stack.push(child);
                }
                let class = self.add_node(op, &stack[base..]);
                stack.truncate(base);
                class
            }
        }
    }

    /// Looks up the class of a ground term without inserting anything.
    pub fn lookup_term(&self, term: &Term) -> Option<ClassId> {
        let children = term
            .args()
            .iter()
            .map(|a| self.lookup_term(a))
            .collect::<Option<Vec<_>>>()?;
        // The recursive lookups return canonical ids, so the child list
        // is already canonical; a memoized node must have its content
        // interned, so a pool miss is a memo miss.
        let slice = self.pool.lookup(&children)?;
        self.memo.get(&(term.op(), slice)).map(|&c| self.find(c))
    }

    /// Merges two classes.
    ///
    /// Returns the surviving root. Congruence repair is deferred to
    /// [`EGraph::rebuild`].
    ///
    /// # Errors
    ///
    /// Fails if the classes are constrained to be distinct or carry
    /// different constant values (contradiction — an unsound axiom).
    pub fn union(&mut self, a: ClassId, b: ClassId) -> Result<ClassId, EGraphError> {
        let a = self.find_compress(a);
        let b = self.find_compress(b);
        if a == b {
            return Ok(a);
        }
        if self.uncombinable.contains(&ordered(a, b)) {
            return Err(EGraphError::new(format!(
                "contradiction: classes {a} and {b} are constrained to be distinct"
            )));
        }
        self.counts.unions += 1;
        if self.repairing {
            self.counts.congruence_unions += 1;
        }
        // Union by size (number of nodes).
        let (root, other) = if self.class(a).nodes.len() >= self.class(b).nodes.len() {
            (a, b)
        } else {
            (b, a)
        };
        let merged = self.classes[other.index()].take().expect("live class");
        self.live_classes -= 1;
        self.uf[other.0 as usize] = root.0;
        let root_class = self.class_mut(root);
        root_class.nodes.extend(merged.nodes);
        root_class.parents.extend(merged.parents);
        root_class.fold_miss = 0;
        // Nodes over the side without a constant now read one.
        let gains_constant = root_class.constant.is_some() != merged.constant.is_some();
        let new_const = match (root_class.constant, merged.constant) {
            (Some(x), Some(y)) if x != y => {
                return Err(EGraphError::new(format!(
                    "contradiction: class holds two constants {x} and {y}"
                )));
            }
            (x, y) => x.or(y),
        };
        root_class.constant = new_const;
        if gains_constant {
            self.const_epoch += 1;
        }
        if let Some(v) = new_const {
            self.constants.entry(v).or_insert(root);
        }
        // Re-point uncombinable pairs involving `other` at `root`.
        let stale: Vec<(ClassId, ClassId)> = self
            .uncombinable
            .iter()
            .filter(|&&(x, y)| x == other || y == other)
            .copied()
            .collect();
        for pair in stale {
            self.uncombinable.remove(&pair);
            let (x, y) = pair;
            let x = if x == other { root } else { x };
            let y = if y == other { root } else { y };
            self.uncombinable.insert(ordered(x, y));
        }
        self.dirty.push(root);
        self.generation += 1;
        Ok(root)
    }

    /// Constrains two classes to be forever distinct (a paper
    /// "distinction", `T ≠ U`).
    ///
    /// # Errors
    ///
    /// Fails if the classes are already equal.
    pub fn assert_distinct(&mut self, a: ClassId, b: ClassId) -> Result<(), EGraphError> {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return Err(EGraphError::new(format!(
                "contradiction: distinction asserted within one class {a}"
            )));
        }
        self.uncombinable.insert(ordered(a, b));
        Ok(())
    }

    /// Records a clause (disjunction of literals). Untenable literals are
    /// deleted during [`EGraph::rebuild`]; a surviving unit literal is
    /// asserted (§5 of the paper).
    pub fn add_clause(&mut self, literals: Vec<EqLiteral>) {
        self.clauses.push(literals);
    }

    /// The known constant value of a class, if any.
    pub fn constant(&self, id: ClassId) -> Option<u64> {
        self.class(self.find(id)).constant
    }

    /// The canonical class of the literal constant `value`, if present.
    pub fn constant_class(&self, value: u64) -> Option<ClassId> {
        self.constants.get(&value).map(|&c| self.find(c))
    }

    /// True if the two classes are provably different values: distinct
    /// constants, an asserted distinction, or a shared base pointer with
    /// different constant offsets (the analysis behind the paper's
    /// `p ≠ p + 8` step).
    pub fn provably_distinct(&self, a: ClassId, b: ClassId) -> bool {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return false;
        }
        if let (Some(x), Some(y)) = (self.constant(a), self.constant(b)) {
            return x != y;
        }
        if self.uncombinable.contains(&ordered(a, b)) {
            return true;
        }
        // Base+offset analysis.
        for (base_a, off_a) in self.base_offsets(a) {
            for (base_b, off_b) in self.base_offsets(b) {
                if base_a == base_b && off_a != off_b {
                    return true;
                }
            }
        }
        false
    }

    /// All `(base_class, offset)` decompositions of a class: the class
    /// itself at offset 0, plus every `add64/addq/sub64/subq(base, const)`
    /// node in it. Used by the code generator to fold address arithmetic
    /// into load/store displacement fields.
    pub fn address_decompositions(&self, id: ClassId) -> Vec<(ClassId, u64)> {
        self.base_offsets(id)
    }

    fn base_offsets(&self, id: ClassId) -> Vec<(ClassId, u64)> {
        let id = self.find(id);
        let mut out = vec![(id, 0u64)];
        for &nid in &self.class(id).nodes {
            let Some(sym) = self.node_ops[nid.index()].as_sym() else {
                continue;
            };
            let name = sym.as_str();
            let negate = match name {
                "add64" | "addq" => false,
                "sub64" | "subq" => true,
                _ => continue,
            };
            let children = self.pool.get(self.node_slices[nid.index()]);
            if children.len() != 2 {
                continue;
            }
            let lhs = self.find(children[0]);
            let rhs = self.find(children[1]);
            if let Some(c) = self.constant(rhs) {
                let off = if negate { c.wrapping_neg() } else { c };
                out.push((lhs, off));
            }
            if !negate {
                if let Some(c) = self.constant(lhs) {
                    out.push((rhs, c));
                }
            }
        }
        out
    }

    /// Restores the congruence invariant, folds newly constant parents,
    /// and processes recorded clauses, repeating until a fixpoint.
    ///
    /// # Errors
    ///
    /// Propagates contradictions discovered while merging.
    pub fn rebuild(&mut self) -> Result<(), EGraphError> {
        self.rebuild_with(EGraph::repair_dirty)
    }

    /// [`EGraph::rebuild`] with the worklist loop passed in, so the
    /// tests can run the reference loop in its place.
    fn rebuild_with(&mut self, repair: fn(&mut EGraph) -> Repair) -> Repair {
        self.counts.rebuilds += 1;
        self.repairing = true;
        let result = self.rebuild_loop(repair);
        self.repairing = false;
        result
    }

    fn rebuild_loop(&mut self, repair: fn(&mut EGraph) -> Repair) -> Repair {
        loop {
            repair(self)?;
            // Canonicalize the arena slices and dedupe the node lists:
            // after this pass every stored slice is canonical and no
            // class lists two nodes with the same `(op, slice)` form.
            // (Interning is content-addressed, so the set of slices
            // created here does not depend on the order classes are
            // visited in.)
            let mut seen = SeededSet::default();
            for i in 0..self.classes.len() {
                let Some(class) = self.classes[i].as_mut() else {
                    continue;
                };
                let mut nodes = std::mem::take(&mut class.nodes);
                seen.clear();
                nodes.retain(|&nid| {
                    seen.insert((self.node_ops[nid.index()], self.canonicalize_slice(nid)))
                });
                self.classes[i].as_mut().expect("live class").nodes = nodes;
            }
            if !self.process_clauses()? && self.dirty.is_empty() {
                return Ok(());
            }
        }
    }

    /// True if `id` is the root of its class.
    fn is_root(&self, id: ClassId) -> bool {
        self.uf[id.index()] == id.0
    }

    /// Congruence repair: pops dirty classes until the worklist is
    /// empty, walking each popped class's parent entries. Each entry's
    /// node is re-keyed by its canonical `(op, slice)`; a parent already
    /// seen under that key in this walk, or the memo's class for it, is
    /// congruent and merged with the node's class, and the class is
    /// offered a constant fold.
    ///
    /// An entry whose stored slice is already canonical takes a short
    /// route with the same effect. Its key is the stored `(op, slice)`,
    /// so re-interning would return the same slice, and removing then
    /// probing the memo under that key would always miss; both are
    /// skipped. The parent-index union, the memo insert, the
    /// `new_parents` update and the fold run as for any other entry, in
    /// the same order.
    ///
    /// A popped class is not walked at all when `generation` has not
    /// moved since its previous walk began (its `walked_at` stamp).
    /// Every event that could give a walk something to do bumps
    /// `generation`: a new node, a union (which moves roots, node and
    /// parent lists, constants and `const_epoch`) or a fold. Without
    /// one, the previous walk left every entry canonical, one entry per
    /// key and each key's class in the memo, and it offered every
    /// parent class a fold at the current epoch, so a new walk would
    /// rewrite the same list and memo values and fold nothing.
    fn repair_dirty(&mut self) -> Repair {
        // `new_parents` must preserve first-seen order: it is written
        // back to `class.parents`, whose order decides the union order
        // on the *next* repair of this class. A map here would leak
        // hash-seed nondeterminism into node-list order.
        let mut new_parents: Vec<(NodeId, ClassId)> = Vec::new();
        let mut parent_index: SeededMap<(Op, SliceId), usize> = SeededMap::default();
        while let Some(dirty) = self.dirty.pop() {
            let dirty = self.find(dirty);
            if self.class(dirty).walked_at == self.generation + 1 {
                continue;
            }
            let parents = self.begin_walk(dirty);
            new_parents.clear();
            parent_index.clear();
            for (nid, node_class) in parents {
                let op = self.node_ops[nid.index()];
                let stored = self.node_slices[nid.index()];
                let canonical = self.pool.get(stored).iter().all(|&c| self.is_root(c));
                let key = if canonical {
                    (op, stored)
                } else {
                    // The memo entry for this node (if this node's key
                    // still owns one) is keyed by its current slice:
                    // every memo insert below re-points the slice first.
                    self.memo.remove(&(op, stored));
                    (op, self.canonicalize_slice(nid))
                };
                let node_class = self.find(node_class);
                let seen = parent_index.get(&key).copied();
                if let Some(i) = seen {
                    self.union(new_parents[i].1, node_class)?;
                }
                if !canonical {
                    let node_class = self.find(node_class);
                    if let Some(&memo_class) = self.memo.get(&key) {
                        let memo_class = self.find(memo_class);
                        if memo_class != node_class {
                            self.union(memo_class, node_class)?;
                        }
                    }
                }
                let node_class = self.find(node_class);
                self.memo.insert(key, node_class);
                match seen {
                    Some(i) => new_parents[i].1 = node_class,
                    None => {
                        parent_index.insert(key, new_parents.len());
                        new_parents.push((nid, node_class));
                    }
                }
                // Constant propagation: the child's merge may have
                // given this parent a constant value.
                self.try_fold_parent(node_class)?;
            }
            let dirty = self.find(dirty);
            self.class_mut(dirty)
                .parents
                .extend_from_slice(&new_parents);
        }
        Ok(())
    }

    /// Starts a congruence-repair walk of `root`'s parents: stamps the
    /// class with the generation the walk begins at, counts the walk,
    /// and takes the parent list for the caller to rebuild.
    fn begin_walk(&mut self, root: ClassId) -> Vec<(NodeId, ClassId)> {
        let stamp = self.generation + 1;
        let class = self.class_mut(root);
        class.walked_at = stamp;
        let parents = std::mem::take(&mut class.parents);
        self.counts.walks += 1;
        self.counts.walked_parents += parents.len() as u64;
        parents
    }

    /// Folds `parent_class` to a constant if one of its nodes now
    /// evaluates to one. The scan covers the whole class, not only the
    /// node under repair: a class can fold here before its own child's
    /// repair would fold it, and moving that fold would reorder unions
    /// (and so renumber classes).
    ///
    /// A class without a constant whose `fold_miss` equals `const_epoch`
    /// has no foldable node, so it is not scanned: a scan that finds
    /// nothing is not repeated until `const_epoch` moves or the class
    /// gains nodes (which resets `fold_miss` to 0), the only events that
    /// can make one of its nodes foldable. The reset value 0 holds the
    /// same promise while the epoch is still 0: until the first fold or
    /// constant-gaining union, every node reads its children's constants
    /// exactly as [`EGraph::add_node`] did when it evaluated the node.
    fn try_fold_parent(&mut self, parent_class: ClassId) -> Result<(), EGraphError> {
        let parent_class = self.find(parent_class);
        let epoch = self.const_epoch;
        let class = self.class(parent_class);
        if class.constant.is_some() || class.fold_miss == epoch {
            return Ok(());
        }
        let Some(value) = class
            .nodes
            .iter()
            .find_map(|&nid| self.node_constant(self.node_op(nid), self.node_children(nid)))
        else {
            self.class_mut(parent_class).fold_miss = epoch;
            return Ok(());
        };
        // Record the constant and unify with the literal's class.
        self.counts.folds += 1;
        self.class_mut(parent_class).constant = Some(value);
        self.const_epoch += 1;
        // The class now matches constant patterns it did not match
        // before: move the generation even though the union below
        // usually does too.
        self.generation += 1;
        let lit = self.add_node(Op::Const(value), &[])?;
        let lit = self.find(lit);
        let parent_class = self.find(parent_class);
        if lit != parent_class {
            self.union(lit, parent_class)?;
        }
        Ok(())
    }

    /// One pass of clause processing. Returns true if any assertion was
    /// made (requiring another rebuild round).
    fn process_clauses(&mut self) -> Result<bool, EGraphError> {
        let mut changed = false;
        let mut remaining = Vec::new();
        let clauses = std::mem::take(&mut self.clauses);
        for clause in clauses {
            let mut satisfied = false;
            let mut live = Vec::new();
            for lit in clause {
                match lit {
                    EqLiteral::Eq(a, b) => {
                        if self.find(a) == self.find(b) {
                            satisfied = true;
                            break;
                        }
                        if !self.provably_distinct(a, b) {
                            live.push(lit); // tenable
                        }
                    }
                    EqLiteral::Ne(a, b) => {
                        if self.provably_distinct(a, b) {
                            satisfied = true;
                            break;
                        }
                        if self.find(a) != self.find(b) {
                            live.push(lit);
                        }
                    }
                }
            }
            if satisfied {
                continue;
            }
            match live.len() {
                0 => {
                    return Err(EGraphError::new(
                        "contradiction: all literals of a recorded clause are untenable",
                    ));
                }
                1 => {
                    match live[0] {
                        EqLiteral::Eq(a, b) => {
                            self.union(a, b)?;
                        }
                        EqLiteral::Ne(a, b) => {
                            self.assert_distinct(a, b)?;
                        }
                    }
                    changed = true;
                }
                _ => remaining.push(live),
            }
        }
        self.clauses.extend(remaining);
        Ok(changed)
    }

    /// Canonical ids of the classes that contain at least one node with
    /// head operator `sym`. This is the matcher's top-level index: a
    /// pattern `(f ...)` can only match inside these classes.
    pub fn classes_with_op(&self, sym: Symbol) -> Vec<ClassId> {
        let Some(ids) = self.op_index.get(&sym) else {
            return Vec::new();
        };
        let mut out: Vec<ClassId> = ids.iter().map(|&c| self.find(c)).collect();
        out.sort();
        out.dedup();
        // Stale entries can point at classes that no longer hold the op
        // (nodes are only ever merged, never removed, so a class that
        // absorbed one keeps it; no filtering needed).
        out
    }

    /// Canonical ids of all live classes.
    pub fn classes(&self) -> Vec<ClassId> {
        (0..self.classes.len())
            .filter(|&i| self.classes[i].is_some())
            .map(|i| ClassId(i as u32))
            .collect()
    }

    /// The canonicalized, deduplicated e-nodes of a class, materialized
    /// as owned [`ENode`]s.
    ///
    /// This is the convenience view (snapshots, diagnostics, tests);
    /// hot paths walk the arena through [`EGraph::class_node_ids`] /
    /// [`EGraph::node_op`] / [`EGraph::node_children`] instead, which
    /// allocate nothing.
    pub fn nodes(&self, id: ClassId) -> Vec<ENode> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &nid in &self.class(self.find(id)).nodes {
            let node = ENode {
                op: self.node_ops[nid.index()],
                children: self
                    .pool
                    .get(self.node_slices[nid.index()])
                    .iter()
                    .map(|&c| self.find(c))
                    .collect(),
            };
            if seen.insert(node.clone()) {
                out.push(node);
            }
        }
        out
    }

    /// The arena ids of the e-nodes stored in a class, in first-seen
    /// order. After [`EGraph::rebuild`] the list is deduplicated and
    /// every node's child slice is canonical; between rebuilds it may
    /// briefly hold congruent duplicates with stale child ids (readers
    /// pass children through [`EGraph::find`]).
    pub fn class_node_ids(&self, id: ClassId) -> &[NodeId] {
        &self.class(self.find(id)).nodes
    }

    /// The raw parent entries of a class: arena nodes that use this
    /// class as a child, paired with the class each parent node was in
    /// when recorded (possibly stale; canonicalize via
    /// [`EGraph::find`]).
    pub fn class_parents(&self, id: ClassId) -> &[(NodeId, ClassId)] {
        &self.class(self.find(id)).parents
    }

    /// Head operator of an arena node.
    pub fn node_op(&self, id: NodeId) -> Op {
        self.node_ops[id.index()]
    }

    /// Child classes of an arena node, as last canonicalized. Stored
    /// ids may be stale after unions; pass them through
    /// [`EGraph::find`] before comparing.
    pub fn node_children(&self, id: NodeId) -> &[ClassId] {
        self.pool.get(self.node_slices[id.index()])
    }

    /// The interned child-slice id of an arena node. Content-addressed:
    /// after [`EGraph::rebuild`], nodes with identical canonical child
    /// lists report the same id.
    pub fn node_slice(&self, id: NodeId) -> SliceId {
        self.node_slices[id.index()]
    }

    /// Memory accounting for the arena/SoA storage (payload bytes, not
    /// allocator capacity, so the numbers are deterministic). See
    /// docs/INTERNALS.md for the layout these measure.
    pub fn memory_stats(&self) -> MemoryStats {
        use std::mem::size_of;
        let nodes = self.node_ops.len() as u64;
        let arena_bytes = nodes * (size_of::<Op>() + size_of::<SliceId>()) as u64;
        let slice_bytes = (self.pool.data.len() * size_of::<ClassId>()
            + self.pool.spans.len() * size_of::<(u32, u32)>()) as u64;
        let mut class_bytes = 0u64;
        for class in self.classes.iter().flatten() {
            class_bytes += (class.nodes.len() * size_of::<NodeId>()
                + class.parents.len() * size_of::<(NodeId, ClassId)>())
                as u64;
        }
        let memo_bytes =
            (self.memo.len() * (size_of::<(Op, SliceId)>() + size_of::<ClassId>())) as u64;
        MemoryStats {
            nodes,
            classes: self.live_classes as u64,
            arena_bytes,
            slice_bytes,
            slice_entries: self.pool.spans.len() as u64,
            slice_refs: nodes,
            class_bytes,
            memo_bytes,
            total_bytes: arena_bytes + slice_bytes + class_bytes + memo_bytes,
            class_table_bytes: (self.classes.len() * size_of::<Option<EClass>>()
                + self.uf.len() * size_of::<u32>()) as u64,
        }
    }
}

/// The result of a rebuild step: a contradiction aborts the rebuild.
type Repair = Result<(), EGraphError>;

fn ordered(a: ClassId, b: ClassId) -> (ClassId, ClassId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn t(s: &str) -> Term {
        let sexpr = denali_term::sexpr::parse_one(s).unwrap();
        Term::from_sexpr(&sexpr, &[]).unwrap()
    }

    #[test]
    fn hashconsing_shares_structure() {
        let mut eg = EGraph::new();
        let a = eg.add_term(&t("(add64 x y)")).unwrap();
        let b = eg.add_term(&t("(add64 x y)")).unwrap();
        assert_eq!(a, b);
        // x, y, add64(x,y) = 3 classes.
        assert_eq!(eg.num_classes(), 3);
    }

    #[test]
    fn class_capacity_fails_cleanly_instead_of_panicking() {
        let mut eg = EGraph::new();
        eg.set_class_capacity(2);
        // x, y fit; add64(x, y) would be the third class.
        let err = eg.add_term(&t("(add64 x y)")).unwrap_err();
        assert!(err.is_too_many_classes(), "unexpected error: {err}");
        assert_eq!(err.kind(), EGraphErrorKind::TooManyClasses);
        assert!(err.to_string().contains("class budget"));
        assert_eq!(eg.num_classes(), 2);
        // Hashcons hits never consume capacity: re-adding existing
        // terms still succeeds at the limit.
        let x = eg.add_term(&t("x")).unwrap();
        assert_eq!(eg.find(x), x);
    }

    #[test]
    fn union_merges_and_find_canonicalizes() {
        let mut eg = EGraph::new();
        let x = eg.add_term(&t("x")).unwrap();
        let y = eg.add_term(&t("y")).unwrap();
        assert_ne!(eg.find(x), eg.find(y));
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.find(x), eg.find(y));
    }

    #[test]
    fn congruence_closure_merges_parents() {
        // x = y implies f(x) = f(y).
        let mut eg = EGraph::new();
        let fx = eg.add_term(&t("(f x)")).unwrap();
        let fy = eg.add_term(&t("(f y)")).unwrap();
        let x = eg.lookup_term(&t("x")).unwrap();
        let y = eg.lookup_term(&t("y")).unwrap();
        assert_ne!(eg.find(fx), eg.find(fy));
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.find(fx), eg.find(fy));
    }

    #[test]
    fn congruence_closure_is_transitive_through_layers() {
        // x = y implies g(f(x)) = g(f(y)).
        let mut eg = EGraph::new();
        let gfx = eg.add_term(&t("(g (f x))")).unwrap();
        let gfy = eg.add_term(&t("(g (f y))")).unwrap();
        let x = eg.lookup_term(&t("x")).unwrap();
        let y = eg.lookup_term(&t("y")).unwrap();
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.find(gfx), eg.find(gfy));
    }

    #[test]
    fn constant_folding_is_eager() {
        let mut eg = EGraph::new();
        let four = eg.add_term(&Term::constant(4)).unwrap();
        let pow = eg.add_term(&t("(pow 2 2)")).unwrap();
        assert_eq!(eg.find(four), eg.find(pow));
        assert_eq!(eg.constant(pow), Some(4));
        assert_eq!(eg.constant_class(4), Some(eg.find(four)));
    }

    #[test]
    fn folding_propagates_after_union() {
        // n has no constant; add64(n, 1) unknown. After n = 2 the parent
        // must fold to 3.
        let mut eg = EGraph::new();
        let sum = eg.add_term(&t("(add64 n 1)")).unwrap();
        let n = eg.lookup_term(&t("n")).unwrap();
        assert_eq!(eg.constant(sum), None);
        let two = eg.add_term(&Term::constant(2)).unwrap();
        eg.union(n, two).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.constant(sum), Some(3));
        let three = eg.add_term(&Term::constant(3)).unwrap();
        assert_eq!(eg.find(sum), eg.find(three));
    }

    #[test]
    fn folding_rescans_a_class_after_a_child_joins_a_constant() {
        // add64(n, 1) is scanned for a fold (and found wanting) while n
        // is unknown; then n's class is absorbed by the larger constant
        // class of 2. The parent's node list never grows, so only the
        // constant event may re-arm the scan.
        let mut eg = EGraph::new();
        let sum = eg.add_term(&t("(add64 n 1)")).unwrap();
        let n = eg.lookup_term(&t("n")).unwrap();
        let k = eg.add_term(&t("k")).unwrap();
        eg.union(n, k).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.constant(sum), None);
        // 2, pow(2, 1) and add64(1, 1): the constant class is the larger
        // one, so it stays the root and n's class is the one absorbed.
        let two = eg.add_term(&t("(pow 2 1)")).unwrap();
        eg.add_term(&t("(add64 1 1)")).unwrap();
        assert!(eg.class_node_ids(two).len() > eg.class_node_ids(n).len());
        let folds = eg.op_counts().folds;
        eg.union(n, two).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.constant(sum), Some(3));
        assert_eq!(eg.op_counts().folds, folds + 1);
    }

    #[test]
    fn folding_rescans_a_scanned_class_that_absorbs_a_foldable_one() {
        // Within one rebuild: d's repair scans P = {f(d1), g(d1), h(d1)}
        // (nothing folds) and then, through the congruence f(d1) = f(d2),
        // absorbs Q = {add64(n, 1), f(d2)}, whose add64 can fold since
        // n = 2. The epoch does not move between the scan and the union,
        // so only the union's reset of the memo lets the fold happen —
        // here or at n's repair, which reaches the same merged class.
        let mut eg = EGraph::new();
        let d1 = eg.add_term(&t("d1")).unwrap();
        let d2 = eg.add_term(&t("d2")).unwrap();
        let p = eg.add_term(&t("(f d1)")).unwrap();
        for other in ["(g d1)", "(h d1)"] {
            let c = eg.add_term(&t(other)).unwrap();
            eg.union(p, c).unwrap();
        }
        let q = eg.add_term(&t("(add64 n 1)")).unwrap();
        let f_d2 = eg.add_term(&t("(f d2)")).unwrap();
        eg.union(q, f_d2).unwrap();
        let n = eg.lookup_term(&t("n")).unwrap();
        let two = eg.add_term(&Term::constant(2)).unwrap();
        eg.union(n, two).unwrap();
        // Pushed last, so repaired first: before n's parents.
        eg.union(d1, d2).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.find(p), eg.find(q));
        assert_eq!(eg.constant(q), Some(3));
    }

    #[test]
    fn conflicting_constants_are_contradictions() {
        let mut eg = EGraph::new();
        let one = eg.add_term(&Term::constant(1)).unwrap();
        let two = eg.add_term(&Term::constant(2)).unwrap();
        assert!(eg.union(one, two).is_err());
    }

    #[test]
    fn distinctions_block_unions() {
        let mut eg = EGraph::new();
        let x = eg.add_term(&t("x")).unwrap();
        let y = eg.add_term(&t("y")).unwrap();
        eg.assert_distinct(x, y).unwrap();
        assert!(eg.provably_distinct(x, y));
        assert!(eg.union(x, y).is_err());
    }

    #[test]
    fn distinction_in_same_class_is_contradiction() {
        let mut eg = EGraph::new();
        let x = eg.add_term(&t("x")).unwrap();
        let y = eg.add_term(&t("y")).unwrap();
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        assert!(eg.assert_distinct(x, y).is_err());
    }

    #[test]
    fn base_offset_analysis_separates_p_and_p_plus_8() {
        let mut eg = EGraph::new();
        let p = eg.add_term(&t("p")).unwrap();
        let p8 = eg.add_term(&t("(add64 p 8)")).unwrap();
        let p8b = eg.add_term(&t("(addq p 8)")).unwrap();
        eg.rebuild().unwrap();
        assert!(eg.provably_distinct(p, p8));
        assert!(eg.provably_distinct(p, p8b));
        // Two different offsets from the same base.
        let p16 = eg.add_term(&t("(add64 p 16)")).unwrap();
        assert!(eg.provably_distinct(p8, p16));
        // Same offset is not distinct (they may be equal).
        assert!(!eg.provably_distinct(p8, p8b));
        // Unknown relationship is not distinct.
        let q = eg.add_term(&t("q")).unwrap();
        assert!(!eg.provably_distinct(p, q));
    }

    #[test]
    fn clause_unit_literal_is_asserted() {
        // The paper's select/store example: the clause
        //   p = p+8  ∨  select(store(M,p,x), p+8) = select(M, p+8)
        // loses its first literal to the offset analysis and asserts the
        // second.
        let mut eg = EGraph::new();
        let p = eg.add_term(&t("p")).unwrap();
        let p8 = eg.add_term(&t("(add64 p 8)")).unwrap();
        let lhs = eg
            .add_term(&t("(select (store M p x) (add64 p 8))"))
            .unwrap();
        let rhs = eg.add_term(&t("(select M (add64 p 8))")).unwrap();
        assert_ne!(eg.find(lhs), eg.find(rhs));
        eg.add_clause(vec![EqLiteral::Eq(p, p8), EqLiteral::Eq(lhs, rhs)]);
        eg.rebuild().unwrap();
        assert_eq!(eg.find(lhs), eg.find(rhs));
    }

    #[test]
    fn clause_satisfied_by_true_literal_is_dropped() {
        let mut eg = EGraph::new();
        let x = eg.add_term(&t("x")).unwrap();
        let y = eg.add_term(&t("y")).unwrap();
        let z = eg.add_term(&t("z")).unwrap();
        eg.union(x, y).unwrap();
        // x = y is already true; the clause must not force y = z.
        eg.add_clause(vec![EqLiteral::Eq(x, y), EqLiteral::Eq(y, z)]);
        eg.rebuild().unwrap();
        assert_ne!(eg.find(y), eg.find(z));
    }

    #[test]
    fn clause_with_all_untenable_literals_is_a_contradiction() {
        let mut eg = EGraph::new();
        let one = eg.add_term(&Term::constant(1)).unwrap();
        let two = eg.add_term(&Term::constant(2)).unwrap();
        let three = eg.add_term(&Term::constant(3)).unwrap();
        eg.add_clause(vec![EqLiteral::Eq(one, two), EqLiteral::Eq(two, three)]);
        assert!(eg.rebuild().is_err());
    }

    #[test]
    fn ne_literal_asserts_distinction() {
        let mut eg = EGraph::new();
        let x = eg.add_term(&t("x")).unwrap();
        let y = eg.add_term(&t("y")).unwrap();
        let one = eg.add_term(&Term::constant(1)).unwrap();
        let one_b = eg.add_term(&Term::constant(1)).unwrap();
        // First literal Eq(1,1)... is satisfied, so nothing asserted.
        eg.add_clause(vec![EqLiteral::Eq(one, one_b), EqLiteral::Ne(x, y)]);
        eg.rebuild().unwrap();
        assert!(!eg.provably_distinct(x, y));
        // Now a clause whose only tenable literal is the distinction.
        let two = eg.add_term(&Term::constant(2)).unwrap();
        eg.add_clause(vec![EqLiteral::Eq(one, two), EqLiteral::Ne(x, y)]);
        eg.rebuild().unwrap();
        assert!(eg.provably_distinct(x, y));
        assert!(eg.union(x, y).is_err());
    }

    #[test]
    fn nodes_are_canonical_and_deduped() {
        let mut eg = EGraph::new();
        let fx = eg.add_term(&t("(f x)")).unwrap();
        let fy = eg.add_term(&t("(f y)")).unwrap();
        let x = eg.lookup_term(&t("x")).unwrap();
        let y = eg.lookup_term(&t("y")).unwrap();
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        // f(x) and f(y) are now the same canonical node.
        let nodes = eg.nodes(fx);
        assert_eq!(nodes.len(), 1);
        assert_eq!(eg.find(fx), eg.find(fy));
    }

    #[test]
    fn interned_slices_are_shared_by_content() {
        let mut eg = EGraph::new();
        let fxy = eg.add_term(&t("(f x y)")).unwrap();
        let gxy = eg.add_term(&t("(g x y)")).unwrap();
        // f(x,y) and g(x,y) have identical child lists, so the arena
        // nodes share one interned slice (and differ only in op).
        let f_nid = eg.class_node_ids(fxy)[0];
        let g_nid = eg.class_node_ids(gxy)[0];
        assert_eq!(eg.node_slice(f_nid), eg.node_slice(g_nid));
        assert_ne!(eg.node_op(f_nid), eg.node_op(g_nid));
        assert_eq!(eg.node_children(f_nid), eg.node_children(g_nid));
        let mem = eg.memory_stats();
        assert_eq!(mem.nodes, 4, "x, y, f(x,y), g(x,y)");
        assert_eq!(mem.slice_refs, 4);
        // Three distinct slices: [], and one shared [x, y].
        assert_eq!(mem.slice_entries, 2);
        assert!(mem.dedup_ratio() > 0.0);
    }

    #[test]
    fn lookup_term_does_not_insert() {
        let mut eg = EGraph::new();
        eg.add_term(&t("(f x)")).unwrap();
        let before = eg.num_nodes();
        assert!(eg.lookup_term(&t("(g x)")).is_none());
        assert_eq!(eg.num_nodes(), before);
    }

    #[test]
    fn add_instantiation_uses_bindings() {
        let mut eg = EGraph::new();
        let reg6 = eg.add_term(&t("reg6")).unwrap();
        let one = eg.add_term(&Term::constant(1)).unwrap();
        let pattern = Term::call("s4addq", vec![Term::var("k"), Term::var("n")]);
        let vars = [
            Symbol::intern("n"),
            Symbol::intern("k"),
            Symbol::intern("u"),
        ];
        let mut subst = Subst::new();
        subst.insert(1, reg6);
        subst.insert(0, one);
        let c = eg.add_instantiation(&pattern, &vars, &subst).unwrap();
        assert_eq!(eg.lookup_term(&t("(s4addq reg6 1)")), Some(eg.find(c)));
        // A variable with no slot, or an unbound slot, is an error.
        for bad in ["missing", "u"] {
            let bad = Term::call("f", vec![Term::var(bad)]);
            assert!(eg.add_instantiation(&bad, &vars, &subst).is_err());
        }
    }

    #[test]
    fn figure2_shift_equivalence_via_congruence() {
        // Manually apply the Figure 2 steps: after asserting
        // mul64(reg6,4) = shl64(reg6,2), both are in one class.
        let mut eg = EGraph::new();
        let goal = eg.add_term(&t("(add64 (mul64 reg6 4) 1)")).unwrap();
        let mul = eg.lookup_term(&t("(mul64 reg6 4)")).unwrap();
        let shift = eg.add_term(&t("(shl64 reg6 2)")).unwrap();
        eg.union(mul, shift).unwrap();
        let s4 = eg.add_term(&t("(s4addq reg6 1)")).unwrap();
        eg.union(goal, s4).unwrap();
        eg.rebuild().unwrap();
        // The goal class now contains add64, and s4addq nodes; the mul
        // class contains mul64 and shl64 nodes.
        let goal_ops: Vec<String> = eg
            .nodes(goal)
            .iter()
            .filter_map(|n| n.sym().map(|s| s.to_string()))
            .collect();
        assert!(goal_ops.contains(&"add64".to_owned()));
        assert!(goal_ops.contains(&"s4addq".to_owned()));
        let mul_ops: Vec<String> = eg
            .nodes(mul)
            .iter()
            .filter_map(|n| n.sym().map(|s| s.to_string()))
            .collect();
        assert!(mul_ops.contains(&"mul64".to_owned()));
        assert!(mul_ops.contains(&"shl64".to_owned()));
    }

    #[test]
    fn generation_moves_on_every_event_a_repair_walk_can_see() {
        // Congruence repair's skip (`EClass::walked_at`) trusts these
        // bumps: a new class, a union, a congruence merge and a fold
        // move the generation; a hashcons hit does not.
        let mut eg = EGraph::new();
        let g = eg.generation();
        let fx = eg.add_term(&t("(f x)")).unwrap();
        assert!(eg.generation() > g, "new classes");
        let g = eg.generation();
        eg.add_term(&t("(f x)")).unwrap();
        assert_eq!(eg.generation(), g, "a hashcons hit");
        let fy = eg.add_term(&t("(f y)")).unwrap();
        let x = eg.lookup_term(&t("x")).unwrap();
        let y = eg.lookup_term(&t("y")).unwrap();
        let g = eg.generation();
        eg.union(x, y).unwrap();
        assert!(eg.generation() > g, "a union");
        // Repair merges f(x) and f(y) by congruence.
        let (g, before) = (eg.generation(), eg.op_counts());
        eg.rebuild().unwrap();
        assert_eq!(eg.find(fx), eg.find(fy));
        assert_eq!(eg.op_counts().since(before).congruence_unions, 1);
        assert!(eg.generation() > g, "a congruence merge");
        // n = 2 folds add64(n, 1) to 3 during repair.
        let sum = eg.add_term(&t("(add64 n 1)")).unwrap();
        let n = eg.lookup_term(&t("n")).unwrap();
        let two = eg.add_term(&Term::constant(2)).unwrap();
        eg.union(n, two).unwrap();
        let (g, before) = (eg.generation(), eg.op_counts());
        eg.rebuild().unwrap();
        assert_eq!(eg.constant(sum), Some(3));
        assert_eq!(eg.op_counts().since(before).folds, 1);
        assert!(eg.generation() > g, "a fold");
    }

    #[test]
    fn op_counts_attribute_work() {
        let mut eg = EGraph::new();
        let _fx = eg.add_term(&t("(f x)")).unwrap();
        let _fy = eg.add_term(&t("(f y)")).unwrap();
        let x = eg.lookup_term(&t("x")).unwrap();
        let y = eg.lookup_term(&t("y")).unwrap();
        let before = eg.op_counts();
        assert_eq!(before.new_nodes, 4, "f(x), x, f(y), y");
        assert_eq!(before.unions, 0);
        eg.add_term(&t("(f x)")).unwrap(); // pure hashcons hits
        let hits = eg.op_counts().since(before);
        assert_eq!(hits.adds, 2);
        assert_eq!(hits.hits, 2);
        assert_eq!(hits.new_nodes, 0);
        // One asserted union; rebuild merges f(x)/f(y) by congruence.
        let before = eg.op_counts();
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        let merged = eg.op_counts().since(before);
        assert_eq!(merged.unions, 2);
        assert_eq!(merged.congruence_unions, 1, "only f(x)=f(y) is repair");
        assert_eq!(merged.rebuilds, 1);
        // A fold: n = 2 gives add64(n, 1) the value 3.
        let mut eg = EGraph::new();
        eg.add_term(&t("(add64 n 1)")).unwrap();
        let n = eg.lookup_term(&t("n")).unwrap();
        let two = eg.add_term(&Term::constant(2)).unwrap();
        let before = eg.op_counts();
        eg.union(n, two).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(eg.op_counts().since(before).folds, 1);
    }

    impl EGraph {
        /// The repair loop without the short route or the skip: every
        /// pop walks, and every parent entry removes its memo key,
        /// re-interns its slice and probes the memo. The oracle for
        /// [`EGraph::repair_dirty`].
        fn repair_dirty_reference(&mut self) -> Repair {
            while let Some(dirty) = self.dirty.pop() {
                let dirty = self.find(dirty);
                let parents = self.begin_walk(dirty);
                let mut new_parents: Vec<(NodeId, ClassId)> = Vec::new();
                let mut parent_index: HashMap<(Op, SliceId), usize> = HashMap::new();
                for (nid, node_class) in parents {
                    let op = self.node_ops[nid.index()];
                    self.memo.remove(&(op, self.node_slices[nid.index()]));
                    let key = (op, self.canonicalize_slice(nid));
                    let node_class = self.find(node_class);
                    if let Some(&i) = parent_index.get(&key) {
                        self.union(new_parents[i].1, node_class)?;
                    }
                    let node_class = self.find(node_class);
                    if let Some(&memo_class) = self.memo.get(&key) {
                        let memo_class = self.find(memo_class);
                        if memo_class != node_class {
                            self.union(memo_class, node_class)?;
                        }
                    }
                    let node_class = self.find(node_class);
                    self.memo.insert(key, node_class);
                    match parent_index.get(&key) {
                        Some(&i) => new_parents[i].1 = node_class,
                        None => {
                            parent_index.insert(key, new_parents.len());
                            new_parents.push((nid, node_class));
                        }
                    }
                    self.try_fold_parent(node_class)?;
                }
                let dirty = self.find(dirty);
                self.class_mut(dirty).parents.extend(new_parents);
            }
            Ok(())
        }
    }

    /// A sortable stand-in for an [`Op`].
    type OpRank = (u8, Option<Symbol>, u64);

    fn op_rank(op: Op) -> OpRank {
        match op {
            Op::Sym(s) => (0, Some(s), 0),
            Op::Const(v) => (1, None, v),
            Op::Var(s) => (2, Some(s), 0),
        }
    }

    /// Everything congruence repair can change, read out in an order
    /// that does not depend on hash-map iteration. Stored class ids
    /// are kept as stored, not passed through `find`: equal snapshots
    /// mean both loops wrote the same ids, and so also agree on every
    /// `find`.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        uf: Vec<u32>,
        roots: Vec<ClassId>,
        classes: Vec<Option<EClass>>,
        node_slices: Vec<SliceId>,
        constants: Vec<(u64, ClassId)>,
        uncombinable: Vec<(ClassId, ClassId)>,
        memo: Vec<(OpRank, Vec<ClassId>, ClassId)>,
        generation: u64,
        const_epoch: u64,
        counts: OpCounts,
        memory: MemoryStats,
    }

    fn snapshot(eg: &EGraph) -> Snapshot {
        let mut constants: Vec<(u64, ClassId)> =
            eg.constants.iter().map(|(&v, &c)| (v, c)).collect();
        constants.sort();
        let mut uncombinable: Vec<(ClassId, ClassId)> = eg.uncombinable.iter().copied().collect();
        uncombinable.sort();
        let mut memo: Vec<_> = eg
            .memo
            .iter()
            .map(|(&(op, s), &c)| (op_rank(op), eg.pool.get(s).to_vec(), c))
            .collect();
        memo.sort();
        Snapshot {
            uf: eg.uf.clone(),
            roots: (0..eg.uf.len())
                .map(|i| eg.find(ClassId(i as u32)))
                .collect(),
            classes: eg.classes.clone(),
            node_slices: eg.node_slices.clone(),
            constants,
            uncombinable,
            memo,
            generation: eg.generation,
            const_epoch: eg.const_epoch,
            counts: eg.op_counts(),
            memory: eg.memory_stats(),
        }
    }

    /// Rebuilds two clones of `eg`, one with the reference loop and one
    /// with the real one, and asserts they end identical but for the
    /// walk counters, of which the real loop's are no larger. Returns
    /// the real one's result and graph, and how many pops it skipped.
    fn rebuild_against_reference(eg: &EGraph) -> (Repair, EGraph, u64) {
        let mut reference = eg.clone();
        let expected = reference.rebuild_with(EGraph::repair_dirty_reference);
        let mut real = eg.clone();
        let got = real.rebuild();
        assert_eq!(got, expected, "rebuild results differ");
        let (walked, every_pop) = (real.counts, reference.counts);
        assert!(
            walked.walks <= every_pop.walks && walked.walked_parents <= every_pop.walked_parents,
            "the real loop walked more: {walked:?} against {every_pop:?}"
        );
        if got.is_ok() {
            let mut real_snapshot = snapshot(&real);
            real_snapshot.counts.walks = every_pop.walks;
            real_snapshot.counts.walked_parents = every_pop.walked_parents;
            assert_eq!(real_snapshot, snapshot(&reference));
        }
        (got, real, every_pop.walks - walked.walks)
    }

    /// A random term over leaves a0..a5, small constants, unary `u`,
    /// binary `f`/`g` and `add64` (which folds).
    fn random_term(rng: &mut denali_prng::Rng, depth: usize) -> Term {
        match rng.below(if depth == 0 { 2 } else { 6 }) {
            0 => Term::leaf(format!("a{}", rng.below(6))),
            1 => Term::constant(rng.below(4)),
            2 => Term::call("u", vec![random_term(rng, depth - 1)]),
            op => {
                let name = ["f", "g", "add64"][op as usize - 3];
                let a = random_term(rng, depth - 1);
                let b = random_term(rng, depth - 1);
                Term::call(name, vec![a, b])
            }
        }
    }

    #[test]
    fn repair_matches_the_reference_loop() {
        // Random add/union/clause/distinction batches, each followed by
        // a rebuild compared against the reference. A contradiction
        // ends the case once both loops report the same error.
        fn pick(rng: &mut denali_prng::Rng, ids: &[ClassId]) -> ClassId {
            ids[rng.below_usize(ids.len())]
        }
        let mut skipped = 0;
        denali_prng::forall("repair_matches_the_reference_loop", 96, |rng| {
            let mut eg = EGraph::new();
            let mut ids: Vec<ClassId> = Vec::new();
            for _ in 0..rng.range(3, 10) {
                for _ in 0..rng.range(4, 24) {
                    match rng.below(if ids.len() < 2 { 1 } else { 16 }) {
                        0..=5 => ids.push(eg.add_term(&random_term(rng, 3)).unwrap()),
                        6..=12 => {
                            let (a, b) = (pick(rng, &ids), pick(rng, &ids));
                            // Two constants cannot merge; the union would
                            // fail after taking one class apart.
                            if eg.constant(a).is_none() || eg.constant(b).is_none() {
                                eg.union(a, b).ok();
                            }
                        }
                        13 | 14 => {
                            let lit = |rng: &mut denali_prng::Rng| {
                                let (a, b) = (pick(rng, &ids), pick(rng, &ids));
                                if rng.below(3) == 0 {
                                    EqLiteral::Ne(a, b)
                                } else {
                                    EqLiteral::Eq(a, b)
                                }
                            };
                            let clause = vec![lit(rng), lit(rng)];
                            eg.add_clause(clause);
                        }
                        _ => {
                            let (a, b) = (pick(rng, &ids), pick(rng, &ids));
                            eg.assert_distinct(a, b).ok();
                        }
                    }
                }
                let (result, rebuilt, pops) = rebuild_against_reference(&eg);
                skipped += pops;
                if result.is_err() {
                    return;
                }
                eg = rebuilt;
            }
        });
        assert!(skipped > 0, "no case skipped a pop");
    }

    #[test]
    fn a_class_absorbing_k_classes_is_walked_once() {
        // x absorbs y0..y3, each with a parent of its own operator, so
        // x is on the dirty list four times and its walk merges nothing:
        // the first pop walks all five entries, the other three skip.
        let mut eg = EGraph::new();
        eg.add_term(&t("(q x)")).unwrap();
        let x = eg.lookup_term(&t("x")).unwrap();
        for i in 0..4 {
            eg.add_term(&t(&format!("(p{i} y{i})"))).unwrap();
            let y = eg.lookup_term(&t(&format!("y{i}"))).unwrap();
            assert_eq!(eg.union(x, y).unwrap(), x);
        }
        let before = eg.op_counts();
        let (result, rebuilt, skipped) = rebuild_against_reference(&eg);
        result.unwrap();
        let walked = rebuilt.op_counts().since(before);
        assert_eq!((walked.walks, walked.walked_parents), (1, 5));
        assert_eq!(skipped, 3);
        assert_eq!(walked.congruence_unions, 0);
        assert_eq!(rebuilt.class_parents(x).len(), 5);
    }

    #[test]
    fn a_union_during_a_walk_makes_the_next_pop_walk_again() {
        // x absorbs y and z, so it is popped twice. Its first walk finds
        // f(x) and f(y) congruent and merges them; that union moves the
        // generation, so the second pop walks x again, as the reference
        // does. The merged f class is walked in between.
        let mut eg = EGraph::new();
        let fx = eg.add_term(&t("(f x)")).unwrap();
        let fy = eg.add_term(&t("(f y)")).unwrap();
        let (x, y) = (
            eg.lookup_term(&t("x")).unwrap(),
            eg.lookup_term(&t("y")).unwrap(),
        );
        let z = eg.add_term(&t("z")).unwrap();
        eg.union(x, y).unwrap();
        eg.union(x, z).unwrap();
        let before = eg.op_counts();
        let (result, rebuilt, skipped) = rebuild_against_reference(&eg);
        result.unwrap();
        let walked = rebuilt.op_counts().since(before);
        assert_eq!(rebuilt.find(fx), rebuilt.find(fy));
        assert_eq!(walked.congruence_unions, 1);
        assert_eq!((walked.walks, walked.walked_parents, skipped), (3, 3, 0));
    }

    /// Copies arena node `nid` into a new class of its own, with the
    /// same op and slice, past the memo, and records it as a parent of
    /// each child. Two congruent nodes in two classes, both with a
    /// canonical slice: the public API never leaves this state, because
    /// the memo joins congruent nodes as soon as either is re-keyed.
    fn duplicate_node(eg: &mut EGraph, nid: NodeId) -> ClassId {
        let id = ClassId(eg.uf.len() as u32);
        let dup = NodeId(eg.node_ops.len() as u32);
        eg.node_ops.push(eg.node_ops[nid.index()]);
        eg.node_slices.push(eg.node_slices[nid.index()]);
        eg.uf.push(id.0);
        eg.classes.push(Some(EClass {
            nodes: vec![dup],
            ..EClass::default()
        }));
        eg.live_classes += 1;
        for child in eg.node_children(nid).to_vec() {
            eg.class_mut(child).parents.push((dup, id));
        }
        id
    }

    #[test]
    fn short_route_runs_the_parent_index_union() {
        // x's parent list holds f(x) and its copy, both canonical: the
        // copy's entry takes the short route, finds f(x) under its key
        // in the parent index and performs the union there.
        let mut eg = EGraph::new();
        let fx = eg.add_term(&t("(f x)")).unwrap();
        let x = eg.lookup_term(&t("x")).unwrap();
        let fx_node = eg.class_node_ids(fx)[0];
        let copy = duplicate_node(&mut eg, fx_node);
        eg.dirty.push(x);
        assert_ne!(eg.find(fx), eg.find(copy));
        let before = eg.op_counts();
        let (result, rebuilt, _) = rebuild_against_reference(&eg);
        result.unwrap();
        assert_eq!(rebuilt.find(fx), rebuilt.find(copy));
        assert_eq!(rebuilt.op_counts().since(before).congruence_unions, 1);
        assert_eq!(rebuilt.class_parents(x).len(), 1, "one entry per key");
    }

    #[test]
    fn seeded_hash_spreads_keys_that_differ_only_in_high_bits() {
        use crate::hash::SeededState;
        use std::hash::BuildHasher;
        // Keys a client could choose to share every low bit: constants
        // that differ only above bit 40, and class-id pairs that differ
        // only above bit 20. A hash that leaves high input bits in high
        // output bits would put each set in one bucket of a small table.
        let state = SeededState::default();
        let low_bits = |hashes: Vec<u64>| {
            hashes
                .iter()
                .map(|h| h & 0xfff)
                .collect::<HashSet<u64>>()
                .len()
        };
        let consts: Vec<(Op, SliceId)> = (0..4096u64)
            .map(|k| (Op::Const(k << 40), SliceId(3)))
            .collect();
        let pairs: Vec<(ClassId, ClassId)> = (0..4096u32)
            .map(|k| (ClassId(k << 20), ClassId((k << 20) | 1)))
            .collect();
        let spread = low_bits(consts.iter().map(|k| state.hash_one(k)).collect());
        assert!(
            spread >= 2000,
            "constants: {spread} of 4096 low-12-bit values"
        );
        let spread = low_bits(pairs.iter().map(|k| state.hash_one(k)).collect());
        assert!(
            spread >= 2000,
            "class pairs: {spread} of 4096 low-12-bit values"
        );
        // The seed is per process: maps built apart hash alike and find
        // each other's keys.
        let a: SeededMap<(Op, SliceId), usize> = consts.iter().map(|&k| (k, 0)).collect();
        let b: SeededSet<(Op, SliceId)> = consts.iter().rev().copied().collect();
        assert!(a.keys().all(|k| b.contains(k)) && b.iter().all(|k| a.contains_key(k)));
        assert_eq!(
            SeededState::default().hash_one(consts[7]),
            state.hash_one(consts[7])
        );
    }
}
