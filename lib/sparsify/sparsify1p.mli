(** Single-pass [(1 ± eps)] spectral sparsification in dynamic streams —
    the KLMMS chain (Kapralov–Lee–Musco–Musco–Sidford, arXiv 1407.1289),
    the algorithm the source paper's Section 1 cites as the single-pass
    counterpart of its two-pass {!Ds_core.Sparsify}.

    One pass feeds every signed edge update into a {!Level_bank} (a
    {!Ds_sketch.Linear_sketch.S} family, so deletions, merging, shipping and
    checkpointing come for free). Decode then walks the chain of regularized
    Laplacians [K(gamma) = L + gamma I] with [gamma] halving from
    [gamma0 >= lambda_max] down to [gamma_floor << eps lambda_2]:

    - [K(gamma0)] is within a factor 2 of [gamma0 I], whose effective
      resistances are the analytic [2 / gamma0] — no graph needed;
    - a constant-factor sparsifier of [K(gamma)] yields constant-factor
      resistance estimates for [K(gamma / 2)] (since
      [K(gamma/2) <= K(gamma) <= 2 K(gamma/2)]), computed by JL-sketched
      shifted-CG solves ({!Ds_linalg.Resistance.jl_estimator});
    - the sketch is read once, before the first step: every pair's
      multiplicity [m_e] (the min over banks) and its geometric level in
      each bank; pairs with [m_e <= 0] can never be kept and are dropped;
    - each step samples every remaining pair with probability
      [p_e = min 1 (oversample * m_e * R~_e * ln n / eps_s^2)] (the
      leverage of a multiplicity-[m_e] edge is [m_e] resistances) by
      testing membership against the edge's seed-derived geometric
      level; the recovered weight [m_e * 2^level] makes the estimator
      unbiased;
    - intermediate steps run at constant accuracy [chain_eps]; only the
      final step spends the target [eps], on a bank reserved for it.

    Decode cost: one [O(dim * banks * rows)] read of the bank, then
    [O(candidates + jl_reps * iterations * m)] per step, where [m] is the
    previous step's sparsifier size and [iterations] the CG iterations of
    each shifted solve. *)

type params = {
  bank : Level_bank.params;  (** the sketch state *)
  jl_reps : int;  (** JL probes per resistance estimator (CG solves/step) *)
  oversample : float;  (** constant in [p_e = c * m_e * R~_e * ln n / eps^2] *)
  chain_eps : float;  (** accuracy of intermediate chain steps *)
  gamma0_scale : float;  (** [gamma0 = scale * n >= lambda_max] *)
  gamma_floor_scale : float;  (** chain ends at [scale * eps / n^2] *)
}

exception Invalid_eps of float
(** Raised (with the offending value) on [eps <= 0], [eps >= 1] or NaN,
    mirroring {!Ds_core.Sparsify.Invalid_eps}. *)

val validate_eps : float -> unit
(** @raise Invalid_eps unless [0 < eps < 1]. *)

val default_params : n:int -> eps:float -> params
(** Sized so the geometric class an edge is read from stays sparse relative
    to [cols] ([cols ~ n log n / eps^2], the KLMMS space budget): sketch
    recovery is then exact whp and the sampling error carries the whole
    eps budget. [eps] here must be the smallest accuracy the state will be
    decoded at. @raise Invalid_eps unless [0 < eps < 1].
    @raise Invalid_argument if [n < 2]. *)

type t

val create : Ds_util.Prng.t -> n:int -> params:params -> t
(** Fresh sketch state for an [n]-vertex dynamic stream.
    @raise Invalid_argument if [n < 2]. *)

val n : t -> int
val params : t -> params

val bank : t -> Level_bank.t
(** The underlying linear state — merge it, serialize it ({!Level_bank.Linear}),
    checkpoint it; {!of_bank} rebuilds the sparsifier around the result. *)

val of_bank : n:int -> params:params -> Level_bank.t -> t
(** Wrap an existing bank (e.g. one read back from LSK1 or merged across
    shards). @raise Invalid_argument if the bank's dimension is not
    [Edge_index.dim n]. *)

val update : t -> u:int -> v:int -> delta:int -> unit
(** One signed edge update — the single pass. *)

type result = {
  sparsifier : Ds_graph.Weighted_graph.t;
  space_words : int;  (** total sketch state, {!Level_bank.space_in_words} *)
  chain_steps : int;  (** length of the gamma chain *)
  chain_sizes : int array;  (** edges recovered at each chain step *)
}

val decode : Ds_util.Prng.t -> t -> eps:float -> result
(** Run the chain. [eps] may be any accuracy no smaller than the one the
    params were sized for. The bank is queried once per pair and bank; the
    candidates it yields are held in [O(candidates)] memory for the whole
    chain. @raise Invalid_eps unless [0 < eps < 1]. *)

val run :
  Ds_util.Prng.t ->
  n:int ->
  params:params ->
  eps:float ->
  Ds_stream.Update.t array ->
  result
(** Ingest the whole stream in one pass, then {!decode}. *)

val space_bound : n:int -> eps:float -> float
(** KLMMS's [O~(n / eps^2)]: [n log^3 n / eps^2] in words (unit constant),
    the curve E20 plots measured space against. *)
