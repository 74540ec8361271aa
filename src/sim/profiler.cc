#include "src/sim/profiler.h"

namespace scalecheck {

void SimProfiler::Counters::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("events_executed", events_executed);
  w->Field("events_cancelled", events_cancelled);
  w->Field("event_slot_high_water", event_slot_high_water);
  w->Field("messages_sent", messages_sent);
  w->Field("gossip_syn_handled", gossip_syn_handled);
  w->Field("gossip_states_applied", gossip_states_applied);
  w->Field("gossip_updates_applied", gossip_updates_applied);
  w->Field("digest_builds", digest_builds);
  w->Field("digest_entries_refreshed", digest_entries_refreshed);
  w->Field("digest_full_rebuilds", digest_full_rebuilds);
  w->Field("payload_reuses", payload_reuses);
  w->Field("payload_allocs", payload_allocs);
  w->Field("gossip_digest_bytes_sent", gossip_digest_bytes_sent);
  w->Field("gossip_arena_bytes", gossip_arena_bytes);
  w->Field("endpoint_store_bytes", endpoint_store_bytes);
  w->Field("intern_table_size", intern_table_size);
  w->Field("intern_table_bytes", intern_table_bytes);
  w->Field("fd_window_bytes", fd_window_bytes);
  w->EndObject();
}

}  // namespace scalecheck
