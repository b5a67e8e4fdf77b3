type router_id = int
type as_id = int
type dest = as_id
type path = Path.t

let path_length = Path.length
let path_contains = Path.contains
let path_equal = Path.equal
let pp_path = Path.pp

type update =
  | Advertise of { dest : dest; path : path }
  | Withdraw of dest

let update_dest = function Advertise { dest; _ } -> dest | Withdraw dest -> dest
let is_withdrawal = function Withdraw _ -> true | Advertise _ -> false

let pp_update ppf = function
  | Advertise { dest; path } -> Fmt.pf ppf "advertise(d%d via %a)" dest pp_path path
  | Withdraw dest -> Fmt.pf ppf "withdraw(d%d)" dest

type session_kind = Ebgp | Ibgp

let pp_session_kind ppf = function
  | Ebgp -> Fmt.string ppf "eBGP"
  | Ibgp -> Fmt.string ppf "iBGP"

type relationship = Customer | Peer_link | Provider

let pp_relationship ppf = function
  | Customer -> Fmt.string ppf "customer"
  | Peer_link -> Fmt.string ppf "peer"
  | Provider -> Fmt.string ppf "provider"

let preference_of_relationship = function
  | None -> 0
  | Some Customer -> 0
  | Some Peer_link -> 1
  | Some Provider -> 2
