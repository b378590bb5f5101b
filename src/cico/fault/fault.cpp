#include "cico/fault/fault.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace cico::fault {

namespace {

[[noreturn]] void bad(std::string_view token, std::string_view why) {
  std::ostringstream os;
  os << "faults: " << why << " in '" << token << "'";
  throw std::invalid_argument(os.str());
}

double parse_prob(std::string_view token, std::string_view text) {
  double p = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), p);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    bad(token, "malformed probability");
  }
  if (p < 0.0 || p > 1.0) bad(token, "probability outside [0,1]");
  return p;
}

std::uint64_t parse_u64(std::string_view token, std::string_view text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    bad(token, "malformed integer");
  }
  return v;
}

/// "P:C" -> {prob, cycles}.
RateSpec parse_rate(std::string_view token, std::string_view text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) bad(token, "expected prob:cycles");
  RateSpec r;
  r.prob = parse_prob(token, text.substr(0, colon));
  r.cycles = parse_u64(token, text.substr(colon + 1));
  if (r.prob > 0.0 && r.cycles == 0) bad(token, "zero-cycle fault");
  return r;
}

net::MsgType parse_msg_type(std::string_view token, std::string_view name) {
  const net::MsgType t = net::msg_type_from_name(name);
  if (t == net::MsgType::Count_) bad(token, "unknown message type");
  return t;
}

}  // namespace

bool FaultSpec::injects() const {
  if (drop > 0.0 || dup > 0.0 || delay.prob > 0.0 || stall.prob > 0.0) {
    return true;
  }
  for (std::size_t i = 0; i < net::kMsgTypeCount; ++i) {
    if (drop_by[i] > 0.0 || dup_by[i] > 0.0 || delay_by[i].prob > 0.0) {
      return true;
    }
  }
  return false;
}

FaultSpec FaultSpec::parse(std::string_view text) {
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = text.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) bad(token, "expected key=value");
    std::string_view key = token.substr(0, eq);
    const std::string_view val = token.substr(eq + 1);

    // Per-type override: "<key>.<msg_type>".
    std::string_view type_name;
    const std::size_t dot = key.find('.');
    if (dot != std::string_view::npos) {
      type_name = key.substr(dot + 1);
      key = key.substr(0, dot);
    }

    if (key == "drop") {
      if (type_name.empty()) {
        spec.drop = parse_prob(token, val);
      } else {
        const auto t = parse_msg_type(token, type_name);
        spec.drop_by[static_cast<std::size_t>(t)] = parse_prob(token, val);
      }
    } else if (key == "dup") {
      if (type_name.empty()) {
        spec.dup = parse_prob(token, val);
      } else {
        const auto t = parse_msg_type(token, type_name);
        spec.dup_by[static_cast<std::size_t>(t)] = parse_prob(token, val);
      }
    } else if (key == "delay") {
      if (type_name.empty()) {
        spec.delay = parse_rate(token, val);
      } else {
        const auto t = parse_msg_type(token, type_name);
        spec.delay_by[static_cast<std::size_t>(t)] = parse_rate(token, val);
      }
    } else if (!type_name.empty()) {
      bad(token, "key does not take a message type");
    } else if (key == "stall") {
      spec.stall = parse_rate(token, val);
    } else if (key == "seed") {
      spec.seed = parse_u64(token, val);
    } else if (key == "retries") {
      spec.max_retries = static_cast<std::uint32_t>(parse_u64(token, val));
    } else if (key == "backoff") {
      const std::size_t colon = val.find(':');
      if (colon == std::string_view::npos) bad(token, "expected base:cap");
      spec.backoff_base = parse_u64(token, val.substr(0, colon));
      spec.backoff_cap = parse_u64(token, val.substr(colon + 1));
      if (spec.backoff_cap == 0) bad(token, "zero backoff cap");
    } else if (key == "throttle") {
      spec.throttle_after = static_cast<std::uint32_t>(parse_u64(token, val));
    } else {
      bad(token, "unknown key");
    }
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::ostringstream os;
  const char* sep = "";
  auto emit = [&](auto&&... parts) {
    os << sep;
    (os << ... << parts);
    sep = ",";
  };
  if (drop > 0.0) emit("drop=", drop);
  if (dup > 0.0) emit("dup=", dup);
  if (delay.prob > 0.0) emit("delay=", delay.prob, ':', delay.cycles);
  if (stall.prob > 0.0) emit("stall=", stall.prob, ':', stall.cycles);
  for (std::size_t i = 0; i < net::kMsgTypeCount; ++i) {
    const auto name = net::msg_type_name(static_cast<net::MsgType>(i));
    if (drop_by[i] >= 0.0) emit("drop.", name, '=', drop_by[i]);
    if (dup_by[i] >= 0.0) emit("dup.", name, '=', dup_by[i]);
    if (delay_by[i].prob >= 0.0) {
      emit("delay.", name, '=', delay_by[i].prob, ':', delay_by[i].cycles);
    }
  }
  emit("seed=", seed);
  emit("retries=", max_retries);
  emit("backoff=", backoff_base, ':', backoff_cap);
  if (throttle_after != 0) emit("throttle=", throttle_after);
  return os.str();
}

double FaultInjector::keyed_uniform(std::uint64_t salt, std::uint64_t a,
                                    std::uint64_t b, std::uint64_t c,
                                    std::uint64_t d, std::uint64_t e) const {
  // Chained SplitMix64 finalizer over the message identity: stateless, so
  // the verdict for a given message is the same no matter in what order it
  // is drawn (the keyed-mode determinism argument).
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t h = spec_.seed;
  for (const std::uint64_t v : {salt, a, b, c, d, e}) {
    h = mix((h + kGolden) ^ v);
  }
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultInjector::Fate FaultInjector::fate_at(net::MsgType t, bool droppable,
                                           NodeId from, NodeId to, Cycle now,
                                           Block tag) {
  if (!keyed_) return fate(t, droppable);
  Fate f;
  const auto ti = static_cast<std::uint64_t>(t);
  // Distinct salts per decision; the reliable/droppable leg bit keeps the
  // two legs of one exchange from correlating at identical keys.
  const std::uint64_t leg = droppable ? 1 : 0;
  if (droppable) {
    const double p = spec_.drop_prob(t);
    if (p > 0.0 && keyed_uniform(0, ti, from, to, now, tag) < p) {
      f.dropped = true;
      ++drops_;
      ++drops_by_[static_cast<std::size_t>(t)];
      return f;  // a dropped message is neither duplicated nor delayed
    }
  }
  const double dp = spec_.dup_prob(t);
  if (dp > 0.0 && keyed_uniform(2 + leg, ti, from, to, now, tag) < dp) {
    f.duplicated = true;
    ++dups_;
  }
  const RateSpec dl = spec_.delay_rate(t);
  if (dl.prob > 0.0 && keyed_uniform(4 + leg, ti, from, to, now, tag) < dl.prob) {
    f.delay = dl.cycles;
    ++delays_;
  }
  return f;
}

Cycle FaultInjector::handler_stall_at(Block b, NodeId req, Cycle now) {
  if (!keyed_) return handler_stall();
  if (spec_.stall.prob <= 0.0) return 0;
  if (keyed_uniform(7, b, req, now, 0, 0) >= spec_.stall.prob) return 0;
  ++stalls_;
  return spec_.stall.cycles;
}

FaultInjector::Fate FaultInjector::fate(net::MsgType t, bool droppable) {
  Fate f;
  if (droppable) {
    const double p = spec_.drop_prob(t);
    if (p > 0.0 && rng_.uniform() < p) {
      f.dropped = true;
      ++drops_;
      ++drops_by_[static_cast<std::size_t>(t)];
      return f;  // a dropped message is neither duplicated nor delayed
    }
  }
  const double dp = spec_.dup_prob(t);
  if (dp > 0.0 && rng_.uniform() < dp) {
    f.duplicated = true;
    ++dups_;
  }
  const RateSpec dl = spec_.delay_rate(t);
  if (dl.prob > 0.0 && rng_.uniform() < dl.prob) {
    f.delay = dl.cycles;
    ++delays_;
  }
  return f;
}

Cycle FaultInjector::handler_stall() {
  if (spec_.stall.prob <= 0.0) return 0;
  if (rng_.uniform() >= spec_.stall.prob) return 0;
  ++stalls_;
  return spec_.stall.cycles;
}

}  // namespace cico::fault
