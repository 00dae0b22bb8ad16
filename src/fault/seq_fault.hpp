// Sequential virtual fault simulation — the extension the paper declares
// feasible ("extensions to general fault models and sequential circuits").
//
// Detection tables do not suffice for sequential machines: a fault corrupts
// the *state*, so its effect depends on the whole input history. The
// protocol therefore moves from per-pattern tables to per-fault *shadow
// machines*: the provider keeps, next to the fault-free instance, one
// faulty instance per symbolic fault the user asks about, each stepped with
// the user's cycle-by-cycle inputs. The user compares observable outputs
// and declares the fault detected at the first differing cycle. IP
// protection is preserved: only port-level data (inputs in, outputs back)
// ever crosses the channel, and faults remain symbolic names.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/model.hpp"
#include "gate/seq_netlist.hpp"

namespace vcad::fault {

/// The user's per-component window for sequential fault simulation.
class SeqFaultClient {
 public:
  virtual ~SeqFaultClient() = default;

  /// Symbolic fault list (collapsed, internal faults of the combinational
  /// core).
  virtual std::vector<std::string> faultList() = 0;

  /// Fault-free machine.
  virtual void resetGood() = 0;
  virtual Word stepGood(const Word& inputs) = 0;

  /// Faulty shadow machine for `symbol` (created on first use).
  virtual void resetFaulty(const std::string& symbol) = 0;
  virtual Word stepFaulty(const std::string& symbol, const Word& inputs) = 0;
};

/// Local implementation: the user owns the machine's netlist.
class LocalSeqFaultBlock final : public SeqFaultClient {
 public:
  explicit LocalSeqFaultBlock(const gate::SeqNetlist& seq,
                              bool dominance = true);

  std::vector<std::string> faultList() override;
  void resetGood() override;
  Word stepGood(const Word& inputs) override;
  void resetFaulty(const std::string& symbol) override;
  Word stepFaulty(const std::string& symbol, const Word& inputs) override;

  const CollapsedFaults& collapsed() const { return collapsed_; }

 private:
  gate::SeqEvaluator& shadowFor(const std::string& symbol);

  const gate::SeqNetlist& seq_;
  CollapsedFaults collapsed_;
  std::map<std::string, StuckFault> faultOf_;
  // One engine compiled from seq_'s core, shared by every machine below.
  std::shared_ptr<const gate::PackedEvaluator> engine_;
  gate::SeqEvaluator good_;
  std::map<std::string, gate::SeqEvaluator> shadows_;
};

struct SeqCampaignResult {
  std::vector<std::string> faultList;
  /// First cycle (0-based) at which each detected fault produced an
  /// observable output difference.
  std::map<std::string, std::size_t> detectedAtCycle;
  std::uint64_t goodSteps = 0;
  std::uint64_t faultySteps = 0;

  std::size_t detectedCount() const { return detectedAtCycle.size(); }
  double coverage() const {
    return faultList.empty() ? 0.0
                             : static_cast<double>(detectedAtCycle.size()) /
                                   static_cast<double>(faultList.size());
  }
};

/// Runs a sequential fault campaign: the fault-free reference response is
/// computed once; every fault's shadow machine is stepped until its outputs
/// first diverge (then dropped — sequential fault dropping) or the sequence
/// ends.
SeqCampaignResult runSeqCampaign(SeqFaultClient& client,
                                 const std::vector<Word>& inputSequence);

}  // namespace vcad::fault
