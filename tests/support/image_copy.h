// Copies a component's mutable state through its snapshot image.
//
// This is how the stack copies and resets state: a fleet device is cloned,
// and a used one recycled, by loading an image over its state.  The target
// must be built from the same configuration as the source, since
// configuration is constructor-owned and not in the image.

#ifndef TESTS_SUPPORT_IMAGE_COPY_H_
#define TESTS_SUPPORT_IMAGE_COPY_H_

#include "src/sim/snapshot.h"

namespace dcs::testing {

// Saves `from`'s image and loads it into `to`.  Returns false when the load
// fails or leaves bytes of the image unread.
template <typename T>
bool CopyThroughImage(const T& from, T& to) {
  SnapshotWriter w;
  SaveSnapshot(from, &w);
  SnapshotReader r(w.data(), w.size());
  LoadSnapshot(to, &r);
  return r.ok() && r.AtEnd();
}

}  // namespace dcs::testing

#endif  // TESTS_SUPPORT_IMAGE_COPY_H_
