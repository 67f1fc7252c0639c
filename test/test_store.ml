(* The content-addressed store under every cache tier.

   Covered here:
   - the memory LRU: exact eviction order at capacity, with a hit
     refreshing recency; a memory hit returns the stored value itself;
     inserts into one tier never evict another tier's entries;
   - startup housekeeping over every tier sharing a directory
     ([.model], [.fnmodel], [.prog]): torn entries quarantined, orphan
     temporaries swept; other files in the directory left alone by the
     scan, [gc] and [merge];
   - a corrupt [.prog] read is counted and removed like a Batch entry;
   - [Batch.gc_disk] evicts compiled programs too;
   - each cache version ([Batch.cache_version],
     [Batch.fn_cache_version], [Model_compile.cache_version]) pins the
     bytes its tier writes for one analysis;
   - two concurrent [mira batch] processes over one fresh directory
     never collide on a temporary name (zero I/O retries). *)

open Mira_core

let mira_exe = Filename.concat (Filename.concat ".." "bin") "mira.exe"

let temp_dir =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    Unix.mkdir d 0o755;
    d

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let with_dir prefix f =
  let d = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let files_with_suffix dir suffix =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare

(* entry names are content keys, as in every real tier *)
let key s = Digest.to_hex (Digest.string s)

let find t k = Store.find t ~faults:None ~retries:0 k
let add t k v = Store.add t ~faults:None ~retries:0 k v
let present t k = Option.is_some (find t k)

(* ---------- the memory LRU ---------- *)

let test_lru_order () =
  let t = Store.memory ~capacity:3 in
  List.iter (fun k -> add t k k) [ "a"; "b"; "c" ];
  Alcotest.(check bool) "hit on a" true (present t "a");
  (* recency now b < c < a: inserting d evicts b *)
  add t "d" "d";
  Alcotest.(check bool) "b evicted" false (present t "b");
  (* c < a < d: inserting e evicts c *)
  add t "e" "e";
  Alcotest.(check bool) "c evicted" false (present t "c");
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " kept") true (present t k))
    [ "a"; "d"; "e" ];
  let n = Store.counters t in
  Alcotest.(check int) "hits" 4 n.Store.mem_hits;
  Alcotest.(check int) "stores" 5 n.Store.stores

let test_memory_hit_identity () =
  with_dir "mira-store-id" (fun dir ->
      let tier =
        Store.tier ~suffix:".model" ~magic:"MIRATEST1\n" ~validate:(fun _ ->
            true)
      in
      let t = Store.create tier ~capacity:4 ~dir:(Some dir) in
      let v = Bytes.of_string "payload" in
      let k = key "payload" in
      add t k v;
      (match find t k with
      | Some (v', Store.Memory) ->
          Alcotest.(check bool) "memory hit is the stored value" true (v' == v)
      | _ -> Alcotest.fail "expected a memory hit");
      (* a fresh tier reads the disk copy once, then serves it from
         memory as the very value it decoded *)
      let t2 = Store.create tier ~capacity:4 ~dir:(Some dir) in
      match (find t2 k, find t2 k) with
      | Some (d, Store.Disk), Some (m, Store.Memory) ->
          Alcotest.(check bytes) "disk round trip" v d;
          Alcotest.(check bool) "promoted value returned as is" true (d == m)
      | _ -> Alcotest.fail "expected a disk hit, then a memory hit")

let test_tiers_do_not_evict_each_other () =
  with_dir "mira-store-iso" (fun dir ->
      let mk suffix =
        Store.create
          (Store.tier ~suffix ~magic:"MIRATEST1\n" ~validate:(fun _ -> true))
          ~capacity:1 ~dir:(Some dir)
      in
      let a = mk ".model" and b = mk ".fnmodel" in
      add a (key "1") 1;
      List.iter (fun k -> add b (key k) 2) [ "2"; "3"; "4" ];
      (match find a (key "1") with
      | Some (1, Store.Memory) -> ()
      | _ -> Alcotest.fail "another tier's inserts evicted the entry");
      match find b (key "2") with
      | Some (2, Store.Disk) -> ()
      | _ -> Alcotest.fail "the tier's own inserts should evict its oldest")

(* ---------- housekeeping over every tier ---------- *)

let tiers =
  [ (".model", "MIRAC2\n"); (".fnmodel", "MIRAF1\n"); (".prog", "MIRAPROG1\n") ]
let frame magic body = magic ^ Digest.string body ^ body
let entry name suffix = key name ^ suffix

let test_startup_quarantines_every_tier () =
  with_dir "mira-store-torn" (fun dir ->
      List.iteri
        (fun i (suffix, magic) ->
          let whole = frame magic (String.make 64 'x') in
          write_file
            (Filename.concat dir (entry (Printf.sprintf "a%d" i) suffix))
            whole;
          write_file
            (Filename.concat dir (entry (Printf.sprintf "b%d" i) suffix))
            (String.sub whole 0 (String.length whole / 2)))
        tiers;
      (* a program cache alone opens the directory: its startup scan
         still covers the analysis tiers *)
      ignore (Model_compile.create_cache ~dir ());
      List.iteri
        (fun i (suffix, _) ->
          let torn = entry (Printf.sprintf "b%d" i) suffix in
          Alcotest.(check bool) (torn ^ " quarantined") true
            (Sys.file_exists (Filename.concat dir (torn ^ ".quarantined")));
          Alcotest.(check bool) (torn ^ " gone") false
            (Sys.file_exists (Filename.concat dir torn));
          Alcotest.(check bool) (suffix ^ " intact entry kept") true
            (Sys.file_exists
               (Filename.concat dir (entry (Printf.sprintf "a%d" i) suffix))))
        tiers)

let test_startup_sweeps_every_tier () =
  with_dir "mira-store-orphans" (fun dir ->
      List.iter
        (fun (suffix, magic) ->
          write_file
            (Filename.concat dir (entry "orphan" suffix ^ ".tmp.4242.7"))
            (frame magic "half"))
        tiers;
      ignore (Batch.create_cache ~dir ());
      Alcotest.(check (list string)) "no temporaries left" []
        (Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> f <> Store.lock_file_name)))

(* Files that merely look like cache names: a hex-letter stem, a
   lowercase extension, a [.tmp.] infix. *)
let foreign =
  [ "a.mc"; "add.mc"; "b.c"; "face.py"; "a.out"; "notes.tmp.1"; "cafe.tmp.2" ]

let test_foreign_files_untouched () =
  with_dir "mira-store-foreign" (fun root ->
      let dir = Filename.concat root "cache" in
      let dst = Filename.concat root "merged" in
      Unix.mkdir dir 0o755;
      List.iter (fun f -> write_file (Filename.concat dir f) "user data") foreign;
      let c = Batch.create_cache ~dir () in
      ignore
        (Batch.run ~cache:c
           [
             {
               Batch.src_name = "stream.mc";
               src_text = Option.get (Mira_corpus.Corpus.find "stream");
             };
           ]);
      let rc = Store.recover dir in
      Alcotest.(check int) "nothing quarantined" 0 rc.Store.rc_quarantined;
      let mg = Store.merge ~dst [ dir ] in
      Alcotest.(check int) "only entries scanned" rc.Store.rc_scanned
        mg.Store.mg_scanned;
      let removed, _ = Store.gc ~max_bytes:0 dir in
      Alcotest.(check int) "every entry evicted" rc.Store.rc_scanned removed;
      Alcotest.(check (list string)) "user files survive" (List.sort compare foreign)
        (Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> f <> Store.lock_file_name)
        |> List.sort compare);
      List.iter
        (fun f ->
          Alcotest.(check string) (f ^ " unchanged") "user data"
            (In_channel.with_open_bin (Filename.concat dir f)
               In_channel.input_all);
          Alcotest.(check bool) (f ^ " not merged") false
            (Sys.file_exists (Filename.concat dst f)))
        foreign)

(* ---------- the program tier on Store ---------- *)

let stream_model =
  lazy
    (Mira.analyze ~source_name:"stream.mc"
       (Option.get (Mira_corpus.Corpus.find "stream")))
      .model

let get_stream c =
  match
    Model_compile.get c ~digest:"d0" ~model:(Lazy.force stream_model)
      ~fname:"stream_triad" ~sweep:[ "n" ] ~fixed:[] ()
  with
  | Ok p -> p
  | Error m -> Alcotest.failf "stream_triad did not compile: %s" m

let test_corrupt_prog_counted_and_removed () =
  with_dir "mira-store-prog" (fun dir ->
      ignore (get_stream (Model_compile.create_cache ~dir ()));
      let k =
        Model_compile.key ~digest:"d0" ~fname:"stream_triad" ~sweep:[ "n" ]
          ~fixed:[] ()
      in
      let path = Filename.concat dir (k ^ ".prog") in
      let tier =
        Store.tier ~suffix:".prog" ~magic:"MIRAPROG1\n"
          ~validate:Model_compile.validate
      in
      let t = Store.create tier ~capacity:4 ~dir:(Some dir) in
      (match find t k with
      | Some (_, Store.Disk) -> ()
      | _ -> Alcotest.fail "the published program should read back");
      write_file path "MIRAPROG1\ngarbage";
      let t2 = Store.create tier ~capacity:4 ~dir:(Some dir) in
      Alcotest.(check bool) "corrupt entry reads as a miss" false
        (present t2 k);
      Alcotest.(check int) "counted" 1 (Store.counters t2).Store.corrupt;
      Alcotest.(check bool) "removed" false (Sys.file_exists path);
      (* the program cache recompiles and republishes it *)
      let c = Model_compile.create_cache ~dir () in
      ignore (get_stream c);
      Alcotest.(check int) "recompiled" 1
        (Model_compile.stats c).Model_compile.misses;
      Alcotest.(check bool) "republished" true (Sys.file_exists path))

let test_gc_evicts_programs () =
  with_dir "mira-store-gc" (fun dir ->
      let bc = Batch.create_cache ~dir () in
      let mc = Model_compile.create_cache ~dir () in
      ignore
        (Batch.run ~cache:bc
           [
             {
               Batch.src_name = "stream.mc";
               src_text = Option.get (Mira_corpus.Corpus.find "stream");
             };
           ]);
      ignore (get_stream mc);
      Alcotest.(check int) "one program on disk" 1
        (List.length (files_with_suffix dir ".prog"));
      let removed, _ = Batch.gc_disk ~max_bytes:0 bc in
      Alcotest.(check bool) "entries removed" true (removed > 0);
      List.iter
        (fun (suffix, _) ->
          Alcotest.(check (list string)) (suffix ^ " entries left") []
            (files_with_suffix dir suffix))
        tiers)

(* ---------- payload bytes, pinned per cache version ---------- *)

(* Unmarshalling a stale layout as a new type is undefined behaviour,
   so each cache version pins the bytes its tier writes for one
   analysis: corpus stream.mc at O1, then its stream_triad program
   over n.  A digest that changes under an unchanged version fails
   until that version is bumped; a new version fails until the table
   that MIRA_GOLDEN_GEN=1 prints is pasted here. *)
let pinned_payloads =
  [
    ("mira-batch-5", ".model", "a1f00434b2674074bf18ead1a6f19bc4");
    ("mira-fn-4", ".fnmodel", "920117469b2c480b942b38ad8157e505");
    ("mira-prog-3", ".prog", "e658f706aa5957447829ef7ee3fc3a25");
  ]

let payload_digests () =
  Batch.set_fsync false;
  Fun.protect
    ~finally:(fun () -> Batch.set_fsync true)
    (fun () ->
      with_dir "mira-store-payloads" (fun dir ->
          let text = Option.get (Mira_corpus.Corpus.find "stream") in
          let model =
            match
              Batch.run ~cache:(Batch.create_cache ~dir ())
                [ { Batch.src_name = "stream.mc"; src_text = text } ]
            with
            | [ Ok a ], _ -> a.Batch.a_model
            | _ -> Alcotest.fail "stream.mc did not analyze"
          in
          (match
             Model_compile.get (Model_compile.create_cache ~dir ())
               ~digest:(Batch.key ~level:Mira_codegen.Codegen.O1 text)
               ~model ~fname:"stream_triad" ~sweep:[ "n" ] ~fixed:[] ()
           with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "stream_triad did not compile: %s" m);
          let bytes f =
            In_channel.with_open_bin (Filename.concat dir f)
              In_channel.input_all
          in
          List.map
            (fun (version, suffix) ->
              ( version,
                suffix,
                Digest.to_hex
                  (Digest.string
                     (String.concat ""
                        (List.map bytes (files_with_suffix dir suffix)))) ))
            [
              (Batch.cache_version, ".model");
              (Batch.fn_cache_version, ".fnmodel");
              (Model_compile.cache_version, ".prog");
            ]))

let test_payloads_pinned () =
  List.iter
    (fun (version, suffix, digest) ->
      match
        List.find_opt (fun (v, _, _) -> String.equal v version) pinned_payloads
      with
      | None ->
          Alcotest.failf
            "%s is not pinned: paste the table MIRA_GOLDEN_GEN=1 \
             test_store.exe prints"
            version
      | Some (_, _, pinned) ->
          if not (String.equal pinned digest) then
            Alcotest.failf "%s payload bytes changed: bump %s" suffix version)
    (payload_digests ())

(* ---------- two processes, one directory ---------- *)

let io_retries output =
  List.fold_left
    (fun acc line ->
      match
        Scanf.sscanf line
          "robustness: %d budget-limited, %d injected fault(s), %d corrupt \
           cache entr(ies), %d I/O retr"
          (fun _ _ _ r -> r)
      with
      | r -> acc + r
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
    0
    (String.split_on_char '\n' output)

let test_concurrent_batches_never_collide () =
  with_dir "mira-store-2proc" (fun root ->
      let src = Filename.concat root "src" in
      let cache = Filename.concat root "cache" in
      Unix.mkdir src 0o755;
      (* 12 copies of the corpus, each made distinct by a comment *)
      for copy = 1 to 12 do
        List.iter
          (fun (name, text) ->
            write_file
              (Filename.concat src (Printf.sprintf "%s_%02d.mc" name copy))
              (Printf.sprintf "/* copy %d */\n%s" copy text))
          Mira_corpus.Corpus.all
      done;
      let n = Array.length (Sys.readdir src) in
      Alcotest.(check bool) "at least 150 sources" true (n >= 150);
      let spawn i =
        let out = Filename.concat root (Printf.sprintf "out%d" i) in
        let fd =
          Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
        in
        let argv =
          [|
            mira_exe; "batch"; src; "--jobs"; "2"; "--cache"; "--cache-dir";
            cache;
          |]
        in
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () -> Unix.create_process mira_exe argv Unix.stdin fd fd)
        in
        (pid, out)
      in
      let procs = [ spawn 1; spawn 2 ] in
      List.iter
        (fun (pid, out) ->
          let _, status = Unix.waitpid [] pid in
          let output = In_channel.with_open_bin out In_channel.input_all in
          Alcotest.(check bool)
            (out ^ ": exit 0") true
            (status = Unix.WEXITED 0);
          Alcotest.(check bool) (out ^ ": every source ran") true
            (String.starts_with ~prefix:(Printf.sprintf "batch: %d source" n)
               (List.find
                  (String.starts_with ~prefix:"batch: ")
                  (String.split_on_char '\n' output)));
          Alcotest.(check int) (out ^ ": I/O retries") 0 (io_retries output))
        procs)

let () =
  if Sys.getenv_opt "MIRA_GOLDEN_GEN" <> None then begin
    List.iter
      (fun (v, suffix, d) -> Printf.printf "    (%S, %S, %S);\n" v suffix d)
      (payload_digests ());
    exit 0
  end;
  Alcotest.run "store"
    [
      ( "memory",
        [
          Alcotest.test_case "exact LRU order, hits refresh" `Quick
            test_lru_order;
          Alcotest.test_case "a memory hit returns the stored value" `Quick
            test_memory_hit_identity;
          Alcotest.test_case "tiers never evict each other" `Quick
            test_tiers_do_not_evict_each_other;
        ] );
      ( "housekeeping",
        [
          Alcotest.test_case "startup quarantines torn entries of every tier"
            `Quick test_startup_quarantines_every_tier;
          Alcotest.test_case "startup sweeps orphans of every tier" `Quick
            test_startup_sweeps_every_tier;
          Alcotest.test_case "housekeeping leaves other files alone" `Quick
            test_foreign_files_untouched;
          Alcotest.test_case "a corrupt program read is counted and removed"
            `Quick test_corrupt_prog_counted_and_removed;
          Alcotest.test_case "gc evicts compiled programs" `Quick
            test_gc_evicts_programs;
        ] );
      ( "versions",
        [
          Alcotest.test_case "each cache version pins its payload bytes"
            `Quick test_payloads_pinned;
        ] );
      ( "processes",
        [
          Alcotest.test_case "two batch processes share temporaries safely"
            `Quick test_concurrent_batches_never_collide;
        ] );
    ]
