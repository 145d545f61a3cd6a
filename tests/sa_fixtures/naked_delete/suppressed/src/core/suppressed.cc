// Fixture: suppressed delete lints clean.
struct Widget {
  int value = 0;
};

void Destroy(Widget* w) {
  delete w;  // MMMSA(naked-delete): fixture owns the raw pointer
}
