(** The one outcome type of every decoder in this library.

    Each guarantee here holds with high probability and detects its own
    failure (Theorem 8's s-sparse recovery, the [AGM12a] L0 sampler,
    Algorithm 2's tables), so a decoder has three answers: the sketched
    vector is zero, here is the answer, or a detected decline. No decoder
    is silently wrong beyond its fingerprint's [dim / p] false
    positives. *)

type 'a t =
  | Empty  (** the sketched vector is (whp) identically zero *)
  | Found of 'a  (** the answer; a list decoder never finds [[]] *)
  | Declined  (** detected failure: the vector is non-zero and did not decode *)

val sample_levels :
  tie_break:Ds_util.Kwise.t -> levels:int -> (int -> (int * int) list t) -> (int * int) t
(** The L0 sampler's scan over nested levels, where level [0] holds the
    whole vector and [decode_level j] decodes level [j]. From the sparsest
    level down, the first [Found] support gives the member whose index has
    the least [Kwise.eval tie_break] value (the first such in list order);
    an [Empty] level passes to the next denser one, and a [Declined] level
    declines: the denser levels hold more of the support. [Empty] when
    every level is. *)
