(* What one run reports: metrics, operation counts and failures, plus
   human-readable lines printed ahead of the final JSON object. *)

type t = {
  mutable metrics : (string * float * string) list;  (** reversed *)
  mutable samples : (string * int) list;  (** sample count per metric *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let create () = { metrics = []; samples = []; attempted = 0; failed = 0; errors = [] }
let attempt r n = r.attempted <- r.attempted + n

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.errors < 20 then r.errors <- msg :: r.errors

(* a metric that is not a number fails the run rather than reading 0 *)
let metric r name unit v =
  if not (Float.is_finite v) then fail r (name ^ " is not a number");
  r.metrics <- (name, v, unit) :: r.metrics

(* The five end-to-end metrics of a run, with their sample counts:
   [setups] set-up times, [ops] operations in [wall] seconds, [lat]
   per-operation latencies, [rss] the peak resident set in MB. *)
let end_to_end r ~setups ~ops ~wall ~lat ~rss =
  let n = Samples.count lat in
  List.iter
    (fun (name, unit, v, count) ->
      metric r name unit v;
      r.samples <- (name, count) :: r.samples)
    [
      ("setup_s", "s", Samples.median_list setups, List.length setups);
      ("throughput_per_s", "1/s", float_of_int ops /. wall, ops);
      ("latency_p50_ms", "ms", 1000.0 *. Samples.quantile lat 0.5, n);
      ("latency_p90_ms", "ms", 1000.0 *. Samples.quantile lat 0.9, n);
      ("peak_rss_mb", "MB", rss, 1);
    ]

let line fmt = Printf.ksprintf print_endline fmt

(* Shares of each input class and where the overall p50 and p90 fall:
   a class's band is the overall rank of its 5th to 95th percentile
   sample, so a quantile near a band's edge shows here. *)
let class_report ~what lat cls names =
  let n = Samples.count lat in
  if n > 0 then begin
    let idx = Array.init n Fun.id in
    Array.sort (fun a b -> compare lat.Samples.data.(a) lat.data.(b)) idx;
    let rank = Array.make n 0 in
    Array.iteri (fun r i -> rank.(i) <- r) idx;
    let pct r = 100.0 *. float_of_int r /. float_of_int (max 1 (n - 1)) in
    Array.iteri
      (fun c cname ->
        let mine = List.filter (fun i -> cls.(i) = c) (List.init n Fun.id) in
        let k = List.length mine in
        if k > 0 then begin
          let rs = Array.of_list (List.map (fun i -> rank.(i)) mine) in
          Array.sort compare rs;
          let ls = Array.of_list (List.map (fun i -> lat.data.(i)) mine) in
          Array.sort compare ls;
          line "%s class %-12s share %5.1f%%  band p%.0f-p%.0f  p50 %.3f ms  max %.3f ms"
            what cname
            (100.0 *. float_of_int k /. float_of_int n)
            (pct rs.(k * 5 / 100)) (pct rs.(min (k - 1) (k * 95 / 100)))
            (1000.0 *. Samples.quantile_sorted ls 0.5)
            (1000.0 *. ls.(k - 1))
        end)
      names
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* all digits as measured: %.17g round-trips a double *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_json r ~correct =
  let ms =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
          (json_number v) (json_string u))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed (String.concat ", " ms)
