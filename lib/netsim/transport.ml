type kind = Datagram | Reliable

type lane = Urgent | Bulk

module Channel = struct
  type t = { mutable last_delivery : Des.Time.t }

  let create () = { last_delivery = Des.Time.zero }

  let delivery_time t ~now ~latency =
    let arrival = Des.Time.add now latency in
    let ordered = Stdlib.max arrival (t.last_delivery + 1) in
    t.last_delivery <- ordered;
    ordered
end
