// Actor base for the discrete-event engine.
//
// An actor is an object whose behavior advances by scheduling events on the
// simulation it is bound to. The engine keeps actors deliberately thin: all
// state lives in the derived class, and the base only pins down the binding
// to a Simulation.
#pragma once

#include "engine/simulation.hpp"

namespace hgc::engine {

/// Base class for typed simulation participants.
class Actor {
 public:
  explicit Actor(Simulation& sim) : sim_(&sim) {}
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  Simulation& sim() const { return *sim_; }

 private:
  Simulation* sim_;
};

}  // namespace hgc::engine
