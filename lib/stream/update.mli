(** Dynamic-stream updates: the model of [AGM12a] the paper works in. An
    unweighted stream is a sequence of signed edge updates on an [n]-vertex
    multigraph whose multiplicities must remain non-negative; a weighted
    stream adds a weight that is fixed at insertion and removed wholesale
    (footnote 1 of the paper: no turnstile weight updates). *)

type sign = Insert | Delete

type t = { u : int; v : int; sign : sign }
(** An unweighted update to the multiplicity of [{u, v}]. *)

type weighted = { wu : int; wv : int; weight : float; wsign : sign }

val delta : t -> int
(** [+1] for [Insert], [-1] for [Delete]. *)

val insert : int -> int -> t
val delete : int -> int -> t

val apply : Ds_graph.Graph.t -> t -> unit
(** Apply to a reference graph (raises if a deletion would make a
    multiplicity negative — such a stream is outside the model). *)

val apply_all : Ds_graph.Graph.t -> t array -> unit

val final_graph : n:int -> t array -> Ds_graph.Graph.t
(** The multigraph at the end of the stream. *)

val is_valid : n:int -> t array -> bool
(** Multiplicities stay non-negative throughout and indices are in range. *)
