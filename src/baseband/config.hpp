// Tunable parameters of the baseband model.
//
// Defaults are the Bluetooth 1.1 values the paper quotes; the ablation
// benches (A1, A2 in DESIGN.md) sweep them.
#pragma once

#include <cstdint>

#include "src/util/time.hpp"

namespace bips::baseband {

/// Which 16-hop train a procedure starts with.
enum class Train : std::uint8_t { kA = 0, kB = 1 };

/// How a scanning device picks its listening channel across scan windows.
enum class ScanChannelMode : std::uint8_t {
  /// One fixed channel for the whole run.
  kFixed,
  /// Rotates within the train of the initial channel: the relative train
  /// alignment with a master persists indefinitely. Use for short trials
  /// that classify by starting train (the Table 1 experiment).
  kStickyTrain,
  /// Steps through the full 32-channel sequence, one channel per window
  /// (CLKN16-12 behaviour): crosses the train boundary every 16 windows,
  /// so even a master that only ever sweeps train A eventually meets every
  /// scanner. This is the spec default and the library default.
  kSequence,
};

struct ScanConfig {
  /// T_w_inquiry_scan / T_w_page_scan: how long one listening window lasts.
  Duration window = kDefaultScanWindow;  // 11.25 ms
  /// T_inquiry_scan / T_page_scan: period between window starts. Setting
  /// interval == window yields continuous scanning (the Figure 2 scenario).
  Duration interval = kDefaultScanInterval;  // 1.28 s
  ScanChannelMode channel_mode = ScanChannelMode::kSequence;
  /// Interlaced scan (the Bluetooth 1.2 fix for the very discovery times
  /// the paper measures): each scan opens a *second* back-to-back window on
  /// the complementary train's channel, so the scanner is reachable no
  /// matter which train the master is sweeping -- at twice the window
  /// energy. Requires interval >= 2 * window.
  bool interlaced = false;
};

struct InquiryConfig {
  /// Repetitions of one train before switching (N_inquiry).
  int train_repetitions = kNInquiry;  // 256 -> 2.56 s per train
  /// If false the master stays on the starting train forever (the Figure 2
  /// simulation transmits "using only train A").
  bool switch_trains = true;
  Train starting_train = Train::kA;
};

struct PageConfig {
  /// Repetitions of one page train before switching (N_page).
  int train_repetitions = 128;  // 1.28 s per train
  bool switch_trains = true;
  /// Give up after this long in the page state (0 = never).
  Duration timeout = Duration::from_seconds(5.12);  // pageTO default
};

struct BackoffConfig {
  /// Max inquiry-response backoff, in slots; the slave sleeps
  /// uniform[0, max_slots] slots after hearing the first ID (spec: 1023).
  int max_slots = 1023;
  /// If true, a slave that already sent an FHS re-arms a new backoff and
  /// keeps responding to subsequent IDs (spec behaviour; lets the master
  /// recover responses lost to collisions).
  bool respond_repeatedly = true;
};

struct ChannelConfig {
  /// Independent per-packet loss probability (0 = error-free, the paper's
  /// assumption).
  double packet_error_rate = 0.0;
  /// Distance-dependent loss on top of packet_error_rate: a packet from a
  /// sender at distance d (within range R) is additionally lost with
  /// probability per_at_edge * (d/R)^per_exponent -- a soft coverage edge
  /// instead of the paper's hard 10 m disc. 0 disables it.
  double per_at_edge = 0.0;
  double per_exponent = 4.0;
  /// If true, when two transmissions on one channel overlap at a receiver,
  /// the one whose sender is at least `capture_ratio` times closer is
  /// received anyway (near-far capture). Off by default: BlueHoc's collision
  /// handling destroys both, which is what we reproduce.
  bool capture = false;
  double capture_ratio = 2.0;
  /// Default radio range (paper: piconet radius about 10 m).
  double default_range_m = 10.0;
  /// Shadowing noise on reported RSSI values (standard deviation, dB).
  double rssi_sigma_db = 2.0;
  /// Spatial delivery prefilter: listeners are indexed by RF channel and,
  /// once a channel is crowded, by a coarse position grid, so a transmission
  /// only visits listeners whose grid cells intersect its coverage disc.
  /// Semantically neutral (every visited listener still gets the exact
  /// range test, at the delivery instant and before candidates are ordered)
  /// except for the out_of_range stat, which counts only the visited
  /// listeners that fail that test. Disable to force the linear scan over
  /// every listen on the channel (the equivalence test does).
  bool spatial_grid = true;
  /// Listener count above which one channel migrates from its flat listener
  /// list to the spatial grid (one-way). An inquiry hop counts its own
  /// listeners; a page namespace keeps one listener state for all its hops,
  /// so its count spans them. Most channels host a handful of scanners, for
  /// which a linear scan is faster than grid-cell probes; a hotspot channel
  /// (an auditorium of devices scanning the same hop) is what the grid is
  /// for.
  std::uint32_t grid_threshold = 48;
  /// Edge length of one grid cell, metres.
  double grid_cell_m = 16.0;
  /// Slack added to the search radius so listeners that walk away from the
  /// cell they were indexed under (position is snapshotted at start_listen)
  /// are still found. Listens live for milliseconds and people move at
  /// m/s, so centimetres of drift occur; 2 m is a wide safety margin.
  double grid_slack_m = 2.0;
  /// The RfChannel namespaces (inquiry set, per-address page sets) are
  /// modelled as disjoint, but physically they are 32-channel subsets of
  /// the same 79-channel ISM band. This is the probability that two
  /// time-overlapping transmissions from *different* sets land on the same
  /// physical frequency and interfere (~1/79 per hop pair for independent
  /// sequences; 0 keeps the idealised disjoint model).
  double cross_set_interference = 0.0;
  /// Exact-slot drumming: when true, inquiry/page masters re-arm their
  /// tx-slot process every 1250 us even when no listener could possibly
  /// hear them -- the original, fully-literal schedule -- and piconet
  /// masters drum every poll round, including the provable no-ops. When
  /// false (the default), a master none of whose skipped IDs could reach a
  /// trigger point (RadioChannel::occupied: on a hop of its current train,
  /// a triggering listen within range + ff_slack_m or a hold within
  /// 2 * range + ff_slack_m) parks on a VirtualClock and fast-forwards
  /// closed-form to the instant one appears or its train switches, and a
  /// drained piconet parks its poll loop until the earliest round whose
  /// outcome the supervision speed horizon cannot pin (see DESIGN.md
  /// section 5c). The two modes produce byte-identical discovery histories
  /// and presence streams for a fixed seed; only idle-slot bookkeeping
  /// differs. Sweeps drum exactly whatever this says while
  /// cross_set_interference > 0, which no occupancy index can see.
  bool exact_slots = false;
  /// Safety slack, metres, added to both occupancy radii:
  ///   listen_reach() = max_range_highwater + ff_slack_m   (listens)
  ///   ff_radius()    = 2 * max_range_highwater + ff_slack_m (holds)
  /// A skipped ID must reach a triggering listen to be heard or collide
  /// there; a hold's response can meet a skipped ID at a victim listener
  /// within range of both (hence the factor 2). The slack absorbs a
  /// listener's drift between registration and delivery: a listen must
  /// move less than ff_slack_m while it is open (same contract as
  /// grid_slack_m). The sharded kernel's seam margin uses ff_radius() too.
  double ff_slack_m = 2.0;
};

struct BasebandConfig {
  InquiryConfig inquiry;
  PageConfig page;
  ScanConfig inquiry_scan;
  ScanConfig page_scan;
  BackoffConfig backoff;
  ChannelConfig channel;
};

}  // namespace bips::baseband
