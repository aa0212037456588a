let min_beyond = 10

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let percentile samples q =
  let n = Array.length samples in
  if not (q > 0.0 && q < 1.0) then Error (Printf.sprintf "quantile %g is not in (0, 1)" q)
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let beyond = n - rank in
    if n = 0 || beyond < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples has %d beyond it (need >= %d)" (100.0 *. q) n
           (max 0 beyond) min_beyond)
    else Ok (sorted_copy samples).(max 0 (rank - 1))

let median samples =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else
    let a = sorted_copy samples in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))
