#include "core/tcp_state_machine.h"

#include <algorithm>

#include "util/logging.h"

namespace mopeye {

const char* RelayTcpStateName(RelayTcpState s) {
  switch (s) {
    case RelayTcpState::kListen:
      return "LISTEN";
    case RelayTcpState::kSynRcvd:
      return "SYN_RCVD";
    case RelayTcpState::kEstablished:
      return "ESTABLISHED";
    case RelayTcpState::kCloseWait:
      return "CLOSE_WAIT";
    case RelayTcpState::kLastAck:
      return "LAST_ACK";
    case RelayTcpState::kFinWait1:
      return "FIN_WAIT_1";
    case RelayTcpState::kFinWait2:
      return "FIN_WAIT_2";
    case RelayTcpState::kClosing:
      return "CLOSING";
    case RelayTcpState::kTimeWait:
      return "TIME_WAIT";
    case RelayTcpState::kClosed:
      return "CLOSED";
  }
  return "?";
}

TcpStateMachine::TcpStateMachine(const moppkt::FlowKey& flow, uint32_t iss, uint16_t mss,
                                 uint16_t window)
    : flow_(flow), iss_(iss), snd_nxt_(iss), snd_una_(iss), mss_(mss), window_(window) {}

moppkt::TcpSegmentSpec TcpStateMachine::BaseSpec() const {
  moppkt::TcpSegmentSpec spec;
  // Toward the app we speak *as the server*: source is the remote endpoint.
  spec.src_port = flow_.remote.port;
  spec.dst_port = flow_.local.port;
  spec.seq = snd_nxt_;
  spec.ack = rcv_nxt_;
  spec.window = window_;
  return spec;
}

void TcpStateMachine::NoteSyn(const moppkt::TcpSegment& syn) {
  MOP_CHECK(state_ == RelayTcpState::kListen);
  MOP_CHECK(syn.flags.syn && !syn.flags.ack);
  rcv_nxt_ = syn.seq + 1;
  if (syn.mss.has_value()) {
    app_mss_ = *syn.mss;
  }
}

moppkt::TcpSegmentSpec TcpStateMachine::MakeSynAck() {
  MOP_CHECK(state_ == RelayTcpState::kListen) << RelayTcpStateName(state_);
  moppkt::TcpSegmentSpec spec = BaseSpec();
  spec.seq = iss_;
  spec.flags = moppkt::SynAckFlag();
  spec.mss = mss_;  // §3.4: advertise MSS 1460 in the SYN/ACK
  snd_nxt_ = iss_ + 1;
  state_ = RelayTcpState::kSynRcvd;
  return spec;
}

moppkt::TcpSegmentSpec TcpStateMachine::MakeSynAckRetransmit() const {
  MOP_CHECK(state_ == RelayTcpState::kSynRcvd) << RelayTcpStateName(state_);
  moppkt::TcpSegmentSpec spec = BaseSpec();
  spec.seq = iss_;
  spec.flags = moppkt::SynAckFlag();
  spec.mss = mss_;
  return spec;
}

moppkt::TcpSegmentSpec TcpStateMachine::MakeAck() {
  moppkt::TcpSegmentSpec spec = BaseSpec();
  spec.flags = moppkt::AckFlag();
  return spec;
}

std::vector<moppkt::TcpSegmentSpec> TcpStateMachine::MakeData(
    std::span<const uint8_t> payload) {
  // §3.4: no congestion or flow control toward the app; segment at our MSS
  // and stream continuously.
  std::vector<moppkt::TcpSegmentSpec> out;
  size_t offset = 0;
  while (offset < payload.size()) {
    size_t n = std::min<size_t>(mss_, payload.size() - offset);
    moppkt::TcpSegmentSpec spec = BaseSpec();
    spec.flags = moppkt::PshAckFlag();
    spec.payload = payload.subspan(offset, n);
    out.push_back(spec);
    snd_nxt_ += static_cast<uint32_t>(n);
    bytes_to_app_ += n;
    offset += n;
  }
  return out;
}

moppkt::TcpSegmentSpec TcpStateMachine::MakeFin() {
  moppkt::TcpSegmentSpec spec = BaseSpec();
  spec.flags = moppkt::FinAckFlag();
  snd_nxt_ += 1;
  fin_sent_ = true;
  if (state_ == RelayTcpState::kEstablished || state_ == RelayTcpState::kSynRcvd) {
    state_ = RelayTcpState::kFinWait1;
  } else if (state_ == RelayTcpState::kCloseWait) {
    state_ = RelayTcpState::kLastAck;
  }
  return spec;
}

moppkt::TcpSegmentSpec TcpStateMachine::MakeRst() {
  moppkt::TcpSegmentSpec spec = BaseSpec();
  spec.flags = moppkt::RstFlag();
  spec.ack = 0;
  state_ = RelayTcpState::kClosed;
  return spec;
}

TcpStateMachine::Output TcpStateMachine::OnAppSegment(const moppkt::TcpSegment& seg) {
  Output out;
  if (state_ == RelayTcpState::kClosed) {
    return out;
  }

  // RST from the app: §2.3 "closes the external socket connection and
  // removes the TCP client object".
  if (seg.flags.rst) {
    state_ = RelayTcpState::kClosed;
    out.app_reset = true;
    return out;
  }

  // Duplicate SYN while the external connect is still in flight: the app's
  // kernel is retransmitting; nothing to do yet.
  if (seg.flags.syn) {
    out.duplicate_syn = true;
    return out;
  }

  // ACK bookkeeping.
  if (seg.flags.ack && moppkt::SeqGt(seg.ack, snd_una_)) {
    snd_una_ = seg.ack;
  }

  if (state_ == RelayTcpState::kSynRcvd && seg.flags.ack &&
      moppkt::SeqGe(seg.ack, iss_ + 1)) {
    state_ = RelayTcpState::kEstablished;
    out.established = true;
  }

  // In-order data: relay to the socket write buffer (§2.3 "TCP Data").
  if (!seg.payload.empty()) {
    if (seg.seq == rcv_nxt_) {
      rcv_nxt_ += static_cast<uint32_t>(seg.payload.size());
      bytes_from_app_ += seg.payload.size();
      out.to_socket = seg.payload;
    } else if (moppkt::SeqLt(seg.seq, rcv_nxt_)) {
      // Retransmission of data we already relayed: re-ACK, don't relay.
      out.to_app.push_back(MakeAck());
    }
    // Out-of-order data cannot happen on the lossless in-memory tunnel; if a
    // gap ever appears we drop the segment and let the app retransmit.
  }

  // FIN from the app (must be in order).
  if (seg.flags.fin && seg.seq + seg.payload_size() == rcv_nxt_) {
    rcv_nxt_ += 1;
    // §2.3 "TCP FIN": update to half-closed and ACK immediately.
    out.to_app.push_back(MakeAck());
    switch (state_) {
      case RelayTcpState::kEstablished:
      case RelayTcpState::kSynRcvd:
        state_ = RelayTcpState::kCloseWait;
        out.app_half_closed = true;
        break;
      case RelayTcpState::kFinWait1:
        state_ = fin_sent_ && snd_una_ == snd_nxt_ ? RelayTcpState::kTimeWait
                                                   : RelayTcpState::kClosing;
        if (state_ == RelayTcpState::kTimeWait) {
          state_ = RelayTcpState::kClosed;
          out.fully_closed = true;
        }
        out.app_half_closed = true;
        break;
      case RelayTcpState::kFinWait2:
        state_ = RelayTcpState::kClosed;
        out.fully_closed = true;
        break;
      default:
        break;
    }
    return out;
  }

  // Final ACK transitions for closes.
  if (seg.flags.ack && snd_una_ == snd_nxt_ && fin_sent_) {
    if (state_ == RelayTcpState::kLastAck) {
      state_ = RelayTcpState::kClosed;
      out.fully_closed = true;
    } else if (state_ == RelayTcpState::kFinWait1) {
      state_ = RelayTcpState::kFinWait2;
    } else if (state_ == RelayTcpState::kClosing) {
      state_ = RelayTcpState::kClosed;
      out.fully_closed = true;
    }
  }
  return out;
}

}  // namespace mopeye
