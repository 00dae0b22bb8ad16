// Structural plumbing modules.
//
// Connectors are point-to-point and zero-delay, so multi-fanout nets and net
// delays are represented by explicit modules. This gives the designer a high
// degree of flexibility: a custom fanout module can, for instance, propagate
// a signal toward different target connectors with different delays.
#pragma once

#include <vector>

#include "core/module.hpp"

namespace vcad {

/// Zero-delay buffer: forwards every input word to its output. Also serves
/// as the hierarchy bridge between an outer and an inner connector.
class Buffer final : public Module {
 public:
  Buffer(std::string name, Connector& in, Connector& out);
  void processInputEvent(const SignalToken& token, SimContext& ctx) override;

  bool combinational() const override { return true; }
  void evaluate(std::size_t patterns, std::span<const Word> in,
                std::span<Word> out) const override;

 private:
  Port* in_;
  Port* out_;
};

/// One-input, N-output fanout with an optional per-branch delay.
class Fanout final : public Module {
 public:
  struct Branch {
    Connector* conn;
    SimTime delay = 0;
  };

  Fanout(std::string name, Connector& in, std::vector<Branch> branches);
  void processInputEvent(const SignalToken& token, SimContext& ctx) override;

  /// Only a fanout whose every branch has delay 0 is zero-delay.
  bool combinational() const override;
  void evaluate(std::size_t patterns, std::span<const Word> in,
                std::span<Word> out) const override;

  std::size_t branchCount() const { return branchPorts_.size(); }

 private:
  Port* in_;
  std::vector<std::pair<Port*, SimTime>> branchPorts_;
};

/// Pure transport delay: forwards input to output after `delay` ticks.
class Delay final : public Module {
 public:
  Delay(std::string name, Connector& in, Connector& out, SimTime delay);
  void processInputEvent(const SignalToken& token, SimContext& ctx) override;

  SimTime delay() const { return delay_; }

 private:
  Port* in_;
  Port* out_;
  SimTime delay_;
};

}  // namespace vcad
