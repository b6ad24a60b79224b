// MopEye's user-space TCP state machine (paper §2.3).
//
// Because the external connection is a regular kernel socket, MopEye cannot
// see that side's TCB; the *internal* connection to the app must therefore be
// terminated by MopEye's own RFC 793 machine. This class is deliberately
// pure: it consumes parsed app segments and produces segment specs + decoded
// payload, with no clocks, callbacks, or I/O, so every transition is unit-
// testable in isolation. The engine owns the wiring (when to send SYN/ACK,
// when an ACK is triggered by a completed socket write, etc.).
//
// Deliberate deviations the paper specifies (§3.4):
//  * MSS 1460 advertised in the SYN/ACK; data packets fill 1500-byte IP MTU.
//  * Fixed 65535 receive window; no window-scale option.
//  * No congestion or flow control toward the app: the tunnel is a lossless
//    in-memory link, so data is forwarded continuously without awaiting ACKs.
#ifndef MOPEYE_CORE_TCP_STATE_MACHINE_H_
#define MOPEYE_CORE_TCP_STATE_MACHINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netpkt/packet.h"
#include "netpkt/tcp.h"

namespace mopeye {

enum class RelayTcpState {
  kListen,          // created, SYN seen, external connect in flight
  kSynRcvd,         // SYN/ACK sent, waiting for the app's ACK
  kEstablished,
  kCloseWait,       // app sent FIN (half closed), we still relay server data
  kLastAck,         // we sent FIN after CloseWait, awaiting final ACK
  kFinWait1,        // server closed first; our FIN sent, awaiting ACK
  kFinWait2,        // our FIN acked, awaiting app FIN
  kClosing,         // simultaneous close
  kTimeWait,
  kClosed,
};

const char* RelayTcpStateName(RelayTcpState s);

class TcpStateMachine {
 public:
  // `flow` is the app's five-tuple (local = app addr on the tun, remote =
  // server). `iss` is our initial send sequence number.
  TcpStateMachine(const moppkt::FlowKey& flow, uint32_t iss, uint16_t mss, uint16_t window);

  // What the machine wants done after consuming one app segment.
  struct Input {
    const moppkt::TcpSegment* seg = nullptr;
  };
  struct Output {
    // Segments to emit toward the app (in order).
    std::vector<moppkt::TcpSegmentSpec> to_app;
    // In-order payload bytes to relay to the external socket. A view into
    // the consumed segment's buffer (zero-copy): valid only while the packet
    // buffer the segment was parsed from is alive, so the engine either
    // consumes it immediately or keeps that buffer until the socket write.
    std::span<const uint8_t> to_socket;
    // The app acknowledged our SYN/ACK: connection fully established.
    bool established = false;
    // App half-closed (FIN): trigger a half-close write event (§2.3).
    bool app_half_closed = false;
    // App reset: tear down the external connection and drop the client.
    bool app_reset = false;
    // Handshake completion for the final ACK of a passive close.
    bool fully_closed = false;
    // Segment was a duplicate SYN (app retransmitted while we connect).
    bool duplicate_syn = false;
  };

  // Feeds one segment from the app. Must be called with segments for this
  // flow only.
  Output OnAppSegment(const moppkt::TcpSegment& seg);

  // ---- Engine-driven transitions ----
  // On SYN receipt the engine records the app's ISN here (state kListen).
  void NoteSyn(const moppkt::TcpSegment& syn);
  // External connect() completed: emit the SYN/ACK (kListen -> kSynRcvd).
  moppkt::TcpSegmentSpec MakeSynAck();
  // Re-emit the SYN/ACK for an app SYN retransmission (state unchanged;
  // valid in kSynRcvd, e.g. when the external server answered slowly).
  moppkt::TcpSegmentSpec MakeSynAckRetransmit() const;
  // ACK the data relayed so far (sent when the socket write completes).
  moppkt::TcpSegmentSpec MakeAck();
  // Segment server payload into MSS-sized data packets (advances snd_nxt_).
  std::vector<moppkt::TcpSegmentSpec> MakeData(std::span<const uint8_t> payload);
  // Server closed: emit FIN (kEstablished -> kFinWait1, kCloseWait ->
  // kLastAck).
  moppkt::TcpSegmentSpec MakeFin();
  // Abortive teardown toward the app (external connect failed or RST).
  moppkt::TcpSegmentSpec MakeRst();

  RelayTcpState state() const { return state_; }
  const moppkt::FlowKey& flow() const { return flow_; }
  uint32_t snd_nxt() const { return snd_nxt_; }
  uint32_t rcv_nxt() const { return rcv_nxt_; }
  uint16_t app_mss() const { return app_mss_; }
  uint64_t bytes_to_app() const { return bytes_to_app_; }
  uint64_t bytes_from_app() const { return bytes_from_app_; }

 private:
  moppkt::TcpSegmentSpec BaseSpec() const;

  moppkt::FlowKey flow_;
  RelayTcpState state_ = RelayTcpState::kListen;
  uint32_t iss_;
  uint32_t snd_nxt_;
  uint32_t snd_una_;
  uint32_t rcv_nxt_ = 0;
  uint16_t mss_;
  uint16_t window_;
  uint16_t app_mss_ = 536;
  bool fin_sent_ = false;
  uint64_t bytes_to_app_ = 0;
  uint64_t bytes_from_app_ = 0;
};

}  // namespace mopeye

#endif  // MOPEYE_CORE_TCP_STATE_MACHINE_H_
