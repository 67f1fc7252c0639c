(* Latency sample buffers, allocated once before a measured loop so
   that recording a sample allocates nothing on the OCaml heap: the
   benchmark's own bookkeeping stays out of the program's garbage
   collection. *)

type t = { data : float array; mutable n : int }

let create cap = { data = Array.make (max 1 cap) 0.0; n = 0 }

let add t v =
  if t.n < Array.length t.data then begin
    Array.unsafe_set t.data t.n v;
    t.n <- t.n + 1
  end

let count t = t.n
let sorted t = let a = Array.sub t.data 0 t.n in Array.sort compare a; a

(* linear interpolation between closest ranks *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile t q = quantile_sorted (sorted t) q

(* quantile [q] of the samples whose class in [cls] is [c] *)
let class_quantile t cls c q =
  let s = create t.n in
  for k = 0 to t.n - 1 do
    if cls.(k) = c then add s t.data.(k)
  done;
  quantile s q

let median_list l = quantile_sorted (let a = Array.of_list l in Array.sort compare a; a) 0.5

let now = Unix.gettimeofday

(* VmHWM of a process, in MB ([pid] "self" by default) *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        nan
        (String.split_on_char '\n' text)

