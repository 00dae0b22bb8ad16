#include "core/wiring.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/connector.hpp"

namespace vcad {

Buffer::Buffer(std::string name, Connector& in, Connector& out)
    : Module(std::move(name)) {
  if (in.width() != out.width()) {
    throw std::invalid_argument("Buffer '" + this->name() +
                                "': width mismatch between connectors");
  }
  in_ = &addInput("in", in);
  out_ = &addOutput("out", out);
}

void Buffer::processInputEvent(const SignalToken& token, SimContext& ctx) {
  emit(ctx, *out_, token.value());
}

void Buffer::evaluate(std::size_t patterns, std::span<const Word> in,
                      std::span<Word> out) const {
  std::copy_n(in.begin(), patterns, out.begin());
}

Fanout::Fanout(std::string name, Connector& in, std::vector<Branch> branches)
    : Module(std::move(name)) {
  in_ = &addInput("in", in);
  if (branches.empty()) {
    throw std::invalid_argument("Fanout '" + this->name() +
                                "' needs at least one branch");
  }
  int i = 0;
  for (const Branch& b : branches) {
    if (b.conn == nullptr) {
      throw std::invalid_argument("Fanout branch connector is null");
    }
    if (b.conn->width() != in.width()) {
      throw std::invalid_argument("Fanout '" + this->name() +
                                  "': branch width mismatch");
    }
    Port& p = addOutput("out" + std::to_string(i++), *b.conn);
    branchPorts_.emplace_back(&p, b.delay);
  }
}

void Fanout::processInputEvent(const SignalToken& token, SimContext& ctx) {
  for (auto& [port, delay] : branchPorts_) {
    emit(ctx, *port, token.value(), delay);
  }
}

bool Fanout::combinational() const {
  for (const auto& branch : branchPorts_) {
    if (branch.second != 0) return false;
  }
  return true;
}

void Fanout::evaluate(std::size_t patterns, std::span<const Word> in,
                      std::span<Word> out) const {
  const std::size_t n = branchPorts_.size();
  for (std::size_t p = 0; p < patterns; ++p) {
    std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(p * n), n, in[p]);
  }
}

Delay::Delay(std::string name, Connector& in, Connector& out, SimTime delay)
    : Module(std::move(name)), delay_(delay) {
  if (in.width() != out.width()) {
    throw std::invalid_argument("Delay '" + this->name() +
                                "': width mismatch between connectors");
  }
  in_ = &addInput("in", in);
  out_ = &addOutput("out", out);
}

void Delay::processInputEvent(const SignalToken& token, SimContext& ctx) {
  emit(ctx, *out_, token.value(), delay_);
}

}  // namespace vcad
