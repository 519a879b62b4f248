(* In-process half of the kmm benchmark (driven by perfbench/run.py).

   tracer gen --seed S --size N --genome OUT [--reads OUT --count C]
     Generate the benchmark's genome (Genome_gen) and reads (Read_sim)
     from the seed.

   tracer ref (--index FILE [--mmap] | --genome FASTA) --engine E --queries Q
     Answer every "pattern k" line of Q with Kmismatch.run and print one
     Protocol.render_hits line per query: the reference the correctness
     gates compare kmm's own output against.

   tracer layers --workload W --genome G --index F --queries Q
                 [--reads R --k K --jobs J --eff-reads N --frames FR] --work DIR
     The traced run.  Drives the workload's inputs through each layer's
     public functions, records a span (with an id and a parent link) and a
     Gc.quick_stat delta around every call, writes the spans to
     DIR/trace.json as a Chrome trace, and prints the per-layer metrics as
     one JSON object on the last line of stdout.  The workload's job also
     runs untraced, before and after, for trace.overhead_s.

   Nothing here changes what it measures: every span is recorded by this
   file, around calls into the libraries. *)

open Core

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("tracer: " ^ s); exit 2) fmt

let or_die what = function
  | Ok v -> v
  | Error e -> die "%s: %s" what (Kmm_error.to_string e)

(* --- arguments ------------------------------------------------------- *)

let args = Array.to_list Sys.argv |> List.tl

let opt name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let req name = match opt name with Some v -> v | None -> die "missing %s" name
let flag name = List.mem name args

let engine_of name =
  match Kmismatch.engine_of_string name with
  | Some e -> e
  | None -> die "unknown engine %s" name

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* A query file holds one "pattern k" line per query. *)
let read_queries path =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ p; k ] -> Some (p, int_of_string k)
      | _ -> None)
    (read_lines path)

let first_sequence path =
  match or_die path (Dna.Fasta.try_read_file path) with
  | r :: _ -> r.Dna.Fasta.seq
  | [] -> die "%s: no FASTA record" path

let load_index ~mode path = or_die path (Corpus.try_load ~mode path)

(* --- ref ------------------------------------------------------------- *)

let cmd_ref () =
  let engine = engine_of (req "--engine") in
  let corpus =
    match opt "--genome" with
    | Some g -> Corpus.mono (Kmismatch.of_sequence (first_sequence g))
    | None ->
        let mode = if flag "--mmap" then Fmindex.Fm_index.Mmap else Copy in
        load_index ~mode (req "--index")
  in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (pattern, k) ->
      let r =
        or_die pattern
          (Corpus.try_run corpus (Kmismatch.Query.make ~engine ~pattern ~k ()))
      in
      Buffer.add_string buf (Kmm_server.Protocol.render_hits r.Kmismatch.Response.hits);
      Buffer.add_char buf '\n')
    (read_queries (req "--queries"));
  print_string (Buffer.contents buf)

(* --- traced spans ---------------------------------------------------- *)

let sink = Obs.create ~trace:true ()
let next_id = ref 0
let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: !metrics
let secs ns = float_of_int ns *. 1e-9

(* [phase ~parent name f] runs [f id] inside a span carrying its own [id]
   and its parent's, then emits a "<name>.gc" instant event with the
   Gc.quick_stat deltas of the same interval.  Returns the result, the
   span id, the seconds taken, and the minor-word and major-collection
   deltas. *)
let phase ?(parent = 0) ?(args = []) name f =
  incr next_id;
  let id = !next_id in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_ns () in
  let r =
    Obs.span sink name
      ~args:([ ("id", string_of_int id); ("parent", string_of_int parent) ] @ args)
      (fun () -> f id)
  in
  let dt = secs (Obs.Clock.now_ns () - t0) in
  (* Gc.minor_words is exact; quick_stat's field lags until a minor GC. *)
  let minor = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  let majors = g1.Gc.major_collections - g0.Gc.major_collections in
  Obs.event sink (name ^ ".gc")
    ~args:
      [
        ("span", string_of_int id);
        ("minor_words", Printf.sprintf "%.0f" minor);
        ("major_words", Printf.sprintf "%.0f" (g1.Gc.major_words -. g0.Gc.major_words));
        ("minor_collections", string_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
        ("major_collections", string_of_int majors);
      ];
  (r, id, dt, minor, majors)

(* The per-phase GC metrics, reported for every phase whether or not the
   workload runs it (0 when it does not). *)
let gc_phases =
  [ "fasta_read"; "sa_build"; "index_build"; "save"; "load"; "prepare"; "map"; "tsv" ]

let gc_seen = Hashtbl.create 8

let timed ?parent ?args ?gc name f =
  let r, _, dt, minor, majors = phase ?parent ?args name f in
  Option.iter (fun g -> Hashtbl.replace gc_seen g (minor, majors)) gc;
  (r, dt)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1 |> max 0))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- engine layer ---------------------------------------------------- *)

(* One engine over the workload's query mix, on one domain, twice: first
   timed (a span per query, sharing the query's id across engines, and a
   per-query minor-word delta), then counted (kmm's own engine, fm.* and
   verify.* counters into a fresh sink, telemetry armed).  Timing and
   counting are separate passes so the telemetry hooks do not inflate
   the times. *)
let engine_pass ~parent corpus engine queries =
  let name = Kmismatch.engine_name engine in
  let n = Array.length queries in
  let times = Array.make n 0.0 in
  let minor = ref 0.0 in
  let (), _ =
    timed ~parent ("core.queries." ^ name) (fun span ->
        Array.iteri
          (fun i (qid, pattern, k) ->
            let q = Kmismatch.Query.make ~engine ~pattern ~k () in
            let w0 = Gc.minor_words () in
            let t0 = Obs.Clock.now_ns () in
            ignore
              (or_die pattern
                 (Obs.span sink "core.query"
                    ~args:
                      [ ("id", qid); ("parent", string_of_int span); ("engine", name) ]
                    (fun () -> Corpus.try_run corpus q)));
            times.(i) <- float_of_int (Obs.Clock.now_ns () - t0) /. 1e3;
            minor := !minor +. (Gc.minor_words () -. w0))
          queries)
  in
  Array.sort compare times;
  put (Printf.sprintf "core.query_us.%s.p50" name) (quantile times 0.50);
  put (Printf.sprintf "core.query_us.%s.p99" name) (quantile times 0.99);
  put (Printf.sprintf "core.minor_words_per_query.%s" name) (!minor /. float_of_int (max 1 n));
  let counts = Obs.create () in
  Fmindex.Fm_index.Telemetry.set_enabled true;
  Fmindex.Packed_text.Telemetry.set_enabled true;
  Array.iter
    (fun (_, pattern, k) ->
      ignore
        (or_die pattern
           (Corpus.try_run corpus (Kmismatch.Query.make ~obs:counts ~engine ~pattern ~k ()))))
    queries;
  Fmindex.Fm_index.Telemetry.set_enabled false;
  Fmindex.Packed_text.Telemetry.set_enabled false;
  counts

let per_query counts n name = ratio (Obs.counter_value counts name) n

(* --- layers ---------------------------------------------------------- *)

(* A job's steps run through [timed] when [traced] and as plain calls
   otherwise, so one function gives both sides of trace.overhead_s. *)
let step ~traced ~parent ?gc name f =
  if traced then timed ~parent ?gc name f else (f 0, 0.0)

let prepare ~parent ?gc corpus engine =
  let name = Kmismatch.engine_name engine in
  let (), s =
    timed ~parent ?gc ("core.prepare." ^ name) (fun _ ->
        (Corpus.target corpus).Mapper.tgt_prepare engine)
  in
  put ("core.prepare_s." ^ name) s

(* The batch path of kmm map, in the order a process runs it, on a fresh
   load: read the FASTA, load the index, map, render, write.  kmm map
   prepares the engine inside Mapper.run_target; the traced job prepares
   it first, so its cost shows on its own.  Returns the loaded corpus
   (prepared for [engine]) and the reads. *)
let map_job ~traced ~parent ~engine ~index_file =
  let reads_path = req "--reads" in
  let k = int_of_string (req "--k") and jobs = int_of_string (req "--jobs") in
  let step ?gc name f = step ~traced ~parent ?gc name f in
  let records, fasta_s =
    step ~gc:"fasta_read" "dna.fasta_read" (fun _ ->
        or_die reads_path (Dna.Fasta.try_read_file reads_path))
  in
  let corpus, load_s =
    step ~gc:"load" "fmindex.load" (fun _ ->
        load_index ~mode:Fmindex.Fm_index.Mmap index_file)
  in
  if traced then prepare ~parent ~gc:"prepare" corpus engine;
  let reads = List.mapi (fun i r -> (i, Dna.Sequence.to_string r.Dna.Fasta.seq)) records in
  let obs = if traced then Obs.create () else Obs.noop in
  let options = { Mapper.default with engine; domains = jobs; obs } in
  let (hits, summary), _ =
    step ~gc:"map" "mapper.run_target" (fun _ ->
        Mapper.run_target options (Corpus.target corpus) ~reads ~k)
  in
  let tsv, tsv_s = step ~gc:"tsv" "mapper.to_tsv" (fun _ -> Mapper.to_tsv hits) in
  let oc = open_out_bin (Filename.concat (req "--work") "traced.tsv") in
  output_string oc tsv;
  close_out oc;
  if traced then begin
    let timing name = try List.assoc name summary.Mapper.timings with Not_found -> 0.0 in
    put "dna.fasta_read_s" fasta_s;
    put "fmindex.load_s" load_s;
    put "mapper.search_s" (timing "search");
    put "mapper.merge_s" (timing "merge");
    put "mapper.tsv_s" tsv_s;
    put "pool.queue_wait_us.p50"
      (match Obs.histogram obs "pool.queue_wait_ns" with
      | Some h -> float_of_int (Obs.Histogram.quantile h 0.5) /. 1e3
      | None -> 0.0)
  end;
  (corpus, reads)

(* Domain efficiency: a read subset on 1 and on 2 domains, untraced,
   whatever --jobs the workload maps with. *)
let domain_efficiency corpus ~engine reads =
  let k = int_of_string (req "--k") in
  let subset = List.filteri (fun i _ -> i < int_of_string (req "--eff-reads")) reads in
  let wall domains =
    let t0 = Obs.Clock.now_ns () in
    ignore
      (Mapper.run_target { Mapper.default with engine; domains } (Corpus.target corpus)
         ~reads:subset ~k);
    secs (Obs.Clock.now_ns () - t0)
  in
  let t1 = wall 1 in
  put "mapper.domain_efficiency" (t1 /. (2.0 *. wall 2))

(* The write side, as kmm index runs it: read the genome FASTA, build,
   save.  On map workloads ([main] false) the genome read is not the
   workload's FASTA read and reports nothing.  Returns the genome text. *)
let index_job ~traced ~main ~parent ~work ~genome_path =
  let step ?gc name f = step ~traced ~parent ?gc name f in
  let records, fasta_s =
    step ?gc:(if main then Some "fasta_read" else None) "dna.fasta_read" (fun _ ->
        or_die genome_path (Dna.Fasta.try_read_file genome_path))
  in
  let text =
    match records with
    | r :: _ -> Dna.Sequence.to_string r.Dna.Fasta.seq
    | [] -> die "%s: no FASTA record" genome_path
  in
  let built, build_s =
    step ~gc:"index_build" "fmindex.build" (fun _ -> Kmismatch.build_index text)
  in
  let (), save_s =
    step ~gc:"save" "fmindex.save" (fun _ ->
        Corpus.save (Corpus.mono built) (Filename.concat work "traced.fmi"))
  in
  if traced then begin
    if main then put "dna.fasta_read_s" fasta_s;
    put "fmindex.build_s" build_s;
    put "fmindex.save_s" save_s
  end;
  text

(* The serve request path replayed in process: parse the exact wire frame,
   run it, encode the reply — one span each, children of a per-request
   span, all sharing the request id.  Returns the mean engine time per
   request in microseconds. *)
let replay ~parent corpus frames_path =
  let frames = Array.of_list (read_lines frames_path) in
  let engine_ns = ref 0 in
  let (), _ =
    timed ~parent "server.replay" (fun span ->
        Array.iteri
          (fun i frame ->
            incr next_id;
            let rid = !next_id in
            let a = [ ("id", string_of_int i); ("parent", string_of_int rid) ] in
            Obs.span sink "server.request"
              ~args:[ ("id", string_of_int i); ("span", string_of_int rid);
                      ("parent", string_of_int span) ]
              (fun () ->
                match
                  Obs.span sink "server.parse" ~args:a (fun () ->
                      Kmm_server.Protocol.parse_request
                        ~limits:Kmm_server.Protocol.default_limits frame)
                with
                | Ok { Kmm_server.Protocol.id; body = Query q } ->
                    let query =
                      Kmismatch.Query.make ~engine:q.engine ~pattern:q.pattern ~k:q.k ()
                    in
                    let t0 = Obs.Clock.now_ns () in
                    let r =
                      or_die q.pattern
                        (Obs.span sink "core.query" ~args:a (fun () ->
                             Corpus.try_run corpus query))
                    in
                    engine_ns := !engine_ns + (Obs.Clock.now_ns () - t0);
                    ignore
                      (Obs.span sink "server.encode" ~args:a (fun () ->
                           Kmm_server.Protocol.ok_hits_response ~id ~truncated:false
                             r.Kmismatch.Response.hits))
                | _ -> die "frame %d is not a query" i))
          frames)
  in
  float_of_int !engine_ns /. 1e3 /. float_of_int (max 1 (Array.length frames))

let cmd_layers () =
  let workload = req "--workload" in
  let work = req "--work" in
  let index_file = req "--index" in
  let genome_path = req "--genome" in
  let is_map = String.length workload >= 4 && String.sub workload 0 4 = "map-" in
  let primary = if workload = "map-bidir" then Kmismatch.Bidir else Kmismatch.M_tree in
  let other = if primary = Kmismatch.Bidir then Kmismatch.M_tree else Kmismatch.Bidir in
  (* The workload's own job, untraced: the other side of trace.overhead_s.
     After one warm-up it runs once before and once after the traced job,
     so drift cancels. *)
  let plain () =
    let t0 = Obs.Clock.now_ns () in
    if is_map then ignore (map_job ~traced:false ~parent:0 ~engine:primary ~index_file)
    else ignore (index_job ~traced:false ~main:true ~parent:0 ~work ~genome_path);
    secs (Obs.Clock.now_ns () - t0)
  in
  ignore (plain ());
  let plain_before = plain () in
  let traced_s = ref 0.0 in
  let (), _, total, _, _ =
    phase ~args:[ ("workload", workload) ] "workload" (fun root ->
        let t0 = Obs.Clock.now_ns () in
        let corpus, text =
          if is_map then begin
            let corpus, reads = map_job ~traced:true ~parent:root ~engine:primary ~index_file in
            traced_s := secs (Obs.Clock.now_ns () - t0);
            domain_efficiency corpus ~engine:primary reads;
            (corpus, index_job ~traced:true ~main:false ~parent:root ~work ~genome_path)
          end
          else begin
            let text = index_job ~traced:true ~main:true ~parent:root ~work ~genome_path in
            traced_s := secs (Obs.Clock.now_ns () - t0);
            let corpus, load_s =
              timed ~parent:root ~gc:"load" "fmindex.load" (fun _ ->
                  load_index ~mode:Fmindex.Fm_index.Mmap index_file)
            in
            put "fmindex.load_s" load_s;
            prepare ~parent:root ~gc:"prepare" corpus primary;
            (corpus, text)
          end
        in
        (* Suffix_array.build alone, so the SA-IS share of the index build
           (and of Bidir.make) shows on its own. *)
        let _, sa_s =
          timed ~parent:root ~gc:"sa_build" "suffix.sa_build" (fun _ ->
              Suffix.Suffix_array.build text)
        in
        put "suffix.sa_build_s" sa_s;
        prepare ~parent:root corpus other;
        (* core engines: the workload's query mix on one domain. *)
        let queries =
          Array.of_list
            (List.mapi (fun i (p, k) -> (string_of_int i, p, k)) (read_queries (req "--queries")))
        in
        let n = Array.length queries in
        let counts = List.map (fun e -> (e, engine_pass ~parent:root corpus e queries)) [ primary; other ] in
        let pc = List.assoc primary counts in
        put "engine.nodes_per_query" (per_query pc n "engine.nodes");
        put "engine.rank_calls_per_query" (per_query pc n "engine.rank_calls");
        put "fm.rank_ops_per_query" (per_query pc n "fm.rank_ops");
        put "fm.locate_steps_per_query" (per_query pc n "fm.locate_steps");
        put "verify.calls_per_query" (per_query pc n "verify.calls");
        put "verify.early_exit_ratio"
          (ratio (Obs.counter_value pc "verify.early_exits") (Obs.counter_value pc "verify.calls"));
        let mc = List.assoc Kmismatch.M_tree counts in
        put "engine.derived_leaf_ratio"
          (ratio (Obs.counter_value mc "engine.derived_leaves") (Obs.counter_value mc "engine.leaves"));
        let bc = List.assoc Kmismatch.Bidir counts in
        put "bidir.verify_hit_ratio"
          (ratio (Obs.counter_value bc "query.hits") (Obs.counter_value bc "bidir.verifications"));
        (* Not a per-layer metric itself: run.py divides it by the
           daemon's own request time to give server.engine_share. *)
        Option.iter
          (fun frames -> put "aux.inproc_engine_us" (replay ~parent:root corpus frames))
          (opt "--frames"))
  in
  let plain_after = plain () in
  put "trace.overhead_s" (!traced_s -. ((plain_before +. plain_after) /. 2.0));
  List.iter
    (fun g ->
      let minor, majors = try Hashtbl.find gc_seen g with Not_found -> (0.0, 0) in
      put ("gc.minor_words." ^ g) minor;
      put ("gc.major_collections." ^ g) (float_of_int majors))
    gc_phases;
  put "aux.tracer_s" total;
  Obs.write_chrome_trace ~process_name:("perfbench " ^ workload) sink
    (Filename.concat work "trace.json");
  let fields = List.rev_map (fun (k, v) -> Printf.sprintf "%S: %.9g" k v) !metrics in
  Printf.printf "{%s}\n" (String.concat ", " fields)

(* --- gen ------------------------------------------------------------- *)

(* The inputs, from the same library functions kmm generate and kmm
   simulate run: a Genome_gen genome with 30% planted repeats (300 bp
   units, 2% divergence) and, with --reads, Read_sim's wgsim-style reads
   (100 bp, 2% substitutions, both strands). *)
let cmd_gen () =
  let seed = int_of_string (req "--seed") in
  let genome =
    Dna.Genome_gen.generate
      {
        Dna.Genome_gen.size = int_of_string (req "--size");
        repeat_fraction = 0.30;
        repeat_unit_len = 300;
        divergence = 0.02;
        seed;
      }
  in
  Dna.Fasta.write_file (req "--genome") [ { Dna.Fasta.name = "genome"; seq = genome } ];
  Option.iter
    (fun path ->
      let cfg =
        {
          Dna.Read_sim.count = int_of_string (req "--count");
          len = 100;
          error_rate = 0.02;
          both_strands = true;
          seed;
        }
      in
      Dna.Fasta.write_file path
        (List.map
           (fun r ->
             { Dna.Fasta.name = Printf.sprintf "read%d" r.Dna.Read_sim.id; seq = r.Dna.Read_sim.seq })
           (Dna.Read_sim.simulate cfg genome)))
    (opt "--reads")

let () =
  match args with
  | "ref" :: _ -> cmd_ref ()
  | "layers" :: _ -> cmd_layers ()
  | "gen" :: _ -> cmd_gen ()
  | _ -> die "usage: tracer (gen|ref|layers) ..."
