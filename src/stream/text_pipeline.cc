#include "stream/text_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "hash/hash.h"

namespace bursthist {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string cur;
  bool cur_is_tag = false;
  auto flush = [&] {
    if (!cur.empty()) {
      std::string token = cur_is_tag ? "#" : "";
      token += ToLowerAscii(cur);
      tokens.push_back(std::move(token));
    }
    cur.clear();
    cur_is_tag = false;
  };
  for (char c : text) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc) || c == '_') {
      cur.push_back(c);
    } else if (c == '#' && cur.empty()) {
      cur_is_tag = true;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

std::vector<std::string> ExtractHashtags(std::string_view text) {
  std::vector<std::string> tags;
  for (auto& tok : Tokenize(text)) {
    if (tok.size() > 1 && tok[0] == '#') tags.push_back(std::move(tok));
  }
  return tags;
}

EventIdMapper::EventIdMapper(EventId universe_size, uint64_t seed)
    : universe_size_(universe_size), seed_(seed) {
  assert(universe_size_ >= 1);
}

Status EventIdMapper::BindKeyword(std::string_view keyword, EventId id) {
  if (id >= universe_size_) {
    return Status::InvalidArgument("event id exceeds universe size");
  }
  if (keyword.empty()) {
    return Status::InvalidArgument("empty keyword");
  }
  bindings_[ToLowerAscii(keyword)] = id;
  return Status::OK();
}

EventId EventIdMapper::FallbackId(std::string_view token) const {
  return static_cast<EventId>(HashBytes(ToLowerAscii(token), seed_) %
                              universe_size_);
}

std::vector<EventId> EventIdMapper::MapMessage(std::string_view text) const {
  std::vector<EventId> ids;
  std::vector<std::string> unbound_tags;
  bool any_bound = false;
  for (const auto& tok : Tokenize(text)) {
    auto it = bindings_.find(tok);
    if (it != bindings_.end()) {
      ids.push_back(it->second);
      any_bound = true;
    } else if (tok.size() > 1 && tok[0] == '#') {
      unbound_tags.push_back(tok);
    }
  }
  // Curated bindings take precedence; otherwise every hashtag names
  // its own (hashed) event.
  if (!any_bound) {
    for (const auto& tag : unbound_tags) ids.push_back(FallbackId(tag));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

EventStream ProcessMessages(const EventIdMapper& mapper,
                            const std::vector<Message>& messages) {
  EventStream out;
  for (const auto& m : messages) {
    for (EventId e : mapper.MapMessage(m.text)) {
      out.Append(e, m.time);
    }
  }
  return out;
}

}  // namespace bursthist
