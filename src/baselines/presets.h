// Engine configuration presets for the systems the paper compares against.
//
// Haystack and ToyVpn are VpnService relays like MopEye, so they are modeled
// as MopEyeEngine configurations that undo the paper's optimizations and add
// the costs those systems pay (content inspection, cache mapping, polled tun
// reads). MobiPerf is an *active* prober, modeled separately in mobiperf.h.
#ifndef MOPEYE_BASELINES_PRESETS_H_
#define MOPEYE_BASELINES_PRESETS_H_

#include "core/config.h"

namespace mopbase {

// MopEye as shipped: every §3 optimization on.
mopeye::Config MopEyeConfig();

// Haystack v1.0.0.8-like relay (TLS analysis off, as in the paper's runs):
//  * adaptive-sleep tun reads (its "intelligent sleeping", §3.1)
//  * per-packet traffic content inspection (its purpose: privacy analysis)
//  * cache-based uid mapping (§3.3 cites it)
//  * per-socket protect(), oldPut-style queueing
//  * large inspection buffers and caches (Table 4's 148 MB memory)
mopeye::Config HaystackConfig();

// ToyVpn sample-code relay: fixed 100 ms sleep before each read() (§3.1).
mopeye::Config ToyVpnConfig();

}  // namespace mopbase

#endif  // MOPEYE_BASELINES_PRESETS_H_
