(** Small statistics helpers used by experiments and tests. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Population variance; 0 on arrays shorter than 2. *)

val stddev : float array -> float

val median : float array -> float
(** Median (average of middle pair for even lengths); 0 on empty. *)

val median_int : int array -> int
(** [int_of_float (median (Array.map float_of_int a))] without the float
    array, the copy or the polymorphic compare: the median of an odd-length
    array, and the mean of the middle pair truncated toward zero for an even
    length; 0 on empty. Equal to the float form for values below [2^52] in
    magnitude, where every value and middle-pair sum is exact as a float.
    Sorts [a] in place. *)

val percentile : float array -> float -> float
(** [percentile a q] with [q] in [0, 100], nearest-rank with linear
    interpolation; 0 on empty. Does not mutate [a]. *)

val max_arr : float array -> float
val min_arr : float array -> float

val histogram : float array -> bins:int -> lo:float -> hi:float -> int array
(** Fixed-width histogram; values outside [lo, hi) clamp to end bins. *)

val total_variation : float array -> float array -> float
(** Total-variation distance between two discrete distributions given as
    (not necessarily normalised) non-negative weight vectors of equal
    length. *)

val chi_square_uniform : int array -> float
(** Chi-square statistic of observed counts against the uniform law. *)
