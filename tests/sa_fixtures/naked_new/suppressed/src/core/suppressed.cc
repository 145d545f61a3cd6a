// Fixture: suppressed naked new lints clean; smart-pointer construction is
// never flagged in the first place.
#include <memory>

struct Widget {
  int value = 0;
};

Widget* Make() {
  // MMMSA(naked-new): fixture hands ownership to a C API
  return new Widget();
}

std::unique_ptr<Widget> MakeOwned() {
  return std::unique_ptr<Widget>(new Widget());
}
