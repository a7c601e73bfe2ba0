(* Cache-line padded atomics.

   OCaml 5.1 has no [Atomic.make_contended]; an [Atomic.make 0] is an
   ordinary 2-word heap block, so a batch of them (the 32-way sharded
   telemetry counters, the pool's operation tick) is allocated back to
   back and up to four cells share one 64-byte line.  Every
   [fetch_and_add] then invalidates its neighbours' lines and sharded
   counters serialize on cache coherence instead of scaling.

   The standard workaround (what multicore-magic's [copy_as_padded]
   does) is to allocate the atomic as a *larger* block: the atomic
   primitives ([%atomic_load], [caml_atomic_cas], ...) operate on field
   0 of the block and never inspect its size, so a 16-word block behaves
   exactly like [Atomic.make]'s 2-word one while guaranteeing that no
   two padded cells ever share a 128-byte span (one line plus the
   adjacent-line prefetcher's reach).

   Only immediate (int) contents are supported: the spare fields are
   initialized to the immediate 0, and keeping the payload immediate
   sidesteps any write-barrier subtlety in the padding fields. *)

let words_per_cell = 16

let atomic (v : int) : int Atomic.t =
  (* [Obj.new_block 0 n] zero-initializes fields to [Val_unit]-safe
     values, so the block is valid for the GC before we overwrite
     field 0 with the payload. *)
  let b = Obj.new_block 0 words_per_cell in
  for i = 1 to words_per_cell - 1 do
    Obj.set_field b i (Obj.repr 0)
  done;
  Obj.set_field b 0 (Obj.repr v);
  (Obj.magic b : int Atomic.t)

let array n v = Array.init n (fun _ -> atomic v)
