#pragma once
// Fixture: a header the app tree includes. Clean.

namespace fixture {
int used();
} // namespace fixture
