(** The cluster hierarchy of Section 3.1, shared by the offline reference
    algorithm and the two-pass streaming implementation.

    Levels [0 .. k-1] carry center sets [C_r] ([C_0 = V], density
    [n^{-r/k}]). Every vertex starts as a singleton cluster at level 0; at
    step [i] each live cluster rooted at [u ∈ C_i] either attaches to a
    parent [w ∈ C_{i+1}] found adjacent to the cluster (merging member sets
    at level [i+1]) or becomes {e terminal}. How a parent is found is the
    only difference between the offline and streaming versions, so it is a
    callback here. Membership is chain-based: each vertex belongs, at each
    level it survives to, to exactly one cluster — hence terminal clusters
    partition [V], which pass 2 of Algorithm 2 relies on to route updates by
    "terminal parent".

    Note that the same vertex can root two different terminal clusters (its
    own chain can die at level 0 while other clusters attach to it higher
    up — the paper's forest is on [V x levels], footnote 2), so terminals
    are identified by a dense id, never by their root vertex. *)

type centers = bool array array
(** [centers.(r).(v)] iff [v ∈ C_r]; row 0 is all-true. *)

val sample_centers : Ds_util.Prng.t -> n:int -> k:int -> centers
(** Independent sampling at rate [n^{-r/k}] per level [r]. *)

type attach = level:int -> root:int -> members:int list -> (int * (int * int)) option
(** [attach ~level ~root ~members] looks for a parent for the cluster rooted
    at [root] with the given members: [Some (w, (a, b))] attaches to
    [w ∈ C_{level+1}] with witness edge [(a, b) ∈ E], [a] inside the
    cluster, [b = w]. [None] makes the cluster terminal. *)

type terminal = { root : int; level : int; members : int list }

type t = {
  n : int;
  k : int;
  centers : centers;
  terminal_id_of : int array;  (** vertex -> index into [terminals] *)
  terminals : terminal array;  (** member lists partition [V] *)
  witnesses : (int * int) list;  (** all witness edges [phi(F)] *)
}

val build : n:int -> k:int -> centers:centers -> attach:attach -> t
(** Run the first phase. [attach] is called once per live non-final-level
    cluster per step, in increasing level order. *)

val check_partition : t -> bool
(** Terminal member lists partition the vertex set (internal invariant,
    exposed for tests). *)
