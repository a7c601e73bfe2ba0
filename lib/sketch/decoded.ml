type 'a t = Empty | Found of 'a | Declined

let sample_levels ~tie_break ~levels decode_level =
  let rank (i, _) = Ds_util.Kwise.eval tie_break i in
  let rec least best h0 = function
    | [] -> best
    | m :: rest ->
        let h = rank m in
        if h < h0 then least m h rest else least best h0 rest
  in
  let rec go j =
    if j < 0 then Empty
    else
      match decode_level j with
      | Empty | Found [] -> go (j - 1)
      | Found (m :: rest) -> Found (least m (rank m) rest)
      | Declined -> Declined
  in
  go (levels - 1)
