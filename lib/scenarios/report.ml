let banner ppf title =
  let line = String.make (String.length title + 4) '=' in
  Format.fprintf ppf "@.%s@.= %s =@.%s@." line title line

let subhead ppf title = Format.fprintf ppf "@.-- %s --@." title
let kv ppf key value = Format.fprintf ppf "  %-28s %s@." (key ^ ":") value

type ramp = {
  levels : Kvsm.Workload.level_report list;
  peak_rps : float;
  saturation_rps : float option;
}

let ramp levels =
  {
    levels;
    peak_rps = Kvsm.Workload.peak_throughput levels;
    saturation_rps = Kvsm.Workload.saturation_rate levels;
  }

let ramp_block ppf r =
  List.iter
    (fun level -> Format.fprintf ppf "  %a@." Kvsm.Workload.pp_report level)
    r.levels;
  kv ppf "peak throughput" (Printf.sprintf "%.0f req/s" r.peak_rps);
  kv ppf "saturation offered rate"
    (match r.saturation_rps with
    | Some v -> Printf.sprintf "%.0f req/s" v
    | None -> "not reached")

let float_cell v =
  if Float.is_nan v then Printf.sprintf "%10s" "-"
  else Printf.sprintf "%10.1f" v

let summary_row ppf ~label s =
  Format.fprintf ppf "  %-12s n=%-5d mean=%8.1f p50=%8.1f p90=%8.1f p99=%8.1f max=%8.1f@."
    label (Stats.Summary.count s) (Stats.Summary.mean s)
    (Stats.Summary.percentile s 50.)
    (Stats.Summary.percentile s 90.)
    (Stats.Summary.percentile s 99.)
    (Stats.Summary.max s)

let cdf_table ppf ~label ~series ~points =
  Format.fprintf ppf "  %-8s" label;
  List.iter (fun (name, _) -> Format.fprintf ppf "%12s" name) series;
  Format.fprintf ppf "@.";
  for i = 1 to points do
    let prob = float_of_int i /. float_of_int points in
    Format.fprintf ppf "  p%-7.3g" (100. *. prob);
    List.iter
      (fun (_, s) ->
        let v = Stats.Summary.percentile s (100. *. prob) in
        Format.fprintf ppf "%12s" (String.trim (float_cell v)))
      series;
    Format.fprintf ppf "@."
  done

let series_table ppf ~time_label ~columns =
  match columns with
  | [] -> ()
  | columns ->
      (* Rows are the union of every column's sample instants: columns
         sampled at different times still line up, with [-] where a
         column has no point at that instant (indexing cells by row
         position would pair unrelated instants instead). *)
      let instants =
        List.sort_uniq Float.compare
          (List.concat_map (fun (_, points) -> List.map fst points) columns)
      in
      Format.fprintf ppf "  %10s" time_label;
      List.iter (fun (name, _) -> Format.fprintf ppf "%14s" name) columns;
      Format.fprintf ppf "@.";
      List.iter
        (fun time ->
          Format.fprintf ppf "  %10.0f" time;
          List.iter
            (fun (_, points) ->
              match
                List.find_opt (fun (t, _) -> Float.compare t time = 0) points
              with
              | Some (_, v) ->
                  Format.fprintf ppf "%14s" (String.trim (float_cell v))
              | None -> Format.fprintf ppf "%14s" "-")
            columns;
          Format.fprintf ppf "@.")
        instants

let intervals ppf ~label spans =
  match spans with
  | [] -> Format.fprintf ppf "  %s: none@." label
  | spans ->
      Format.fprintf ppf "  %s:@." label;
      List.iter
        (fun (s, e) ->
          Format.fprintf ppf "    %7.1fs – %7.1fs  (%.1fs)@."
            (Des.Time.to_sec_f s) (Des.Time.to_sec_f e)
            (Des.Time.to_sec_f (Des.Time.diff e s)))
        spans
